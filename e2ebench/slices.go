package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sliceLen is the length of the slices a timed run is cut into to
// match its requests with the CPU time the host stole in the meantime.
const sliceLen = 500 * time.Millisecond

// cpuSample is the machine's cumulative CPU time and the part of it a
// virtualising host stole (the steal column of /proc/stat: time a
// virtual CPU was ready to run but the host ran something else), in
// clock ticks, read at a moment of the run.
type cpuSample struct {
	at           time.Duration // since the start of the run
	total, steal uint64
}

// readCPU reads the machine-wide CPU counters. A machine without
// /proc/stat or without a steal column reads as never stolen from.
func readCPU() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for k, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if k == 7 {
			steal = v
		}
	}
	return total, steal
}

// timedRun is what a closed loop measured: every outcome, the wall
// time from the first send to the last answer, and the CPU counters at
// the start, at every sliceLen and at the end.
type timedRun struct {
	outs    []outcome
	elapsed time.Duration
	cpu     []cpuSample
}

// closedLoop drives the stream from index 0 with `clients` callers
// until the deadline, each caller sending its next request only after
// the previous one was answered.
func closedLoop(w *Workload, seconds float64, do func(Request) (int, [sha256.Size]byte, error)) timedRun {
	var next atomic.Int64
	per := make([][]outcome, clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	sample := func() cpuSample {
		total, steal := readCPU()
		return cpuSample{time.Since(start), total, steal}
	}
	run := timedRun{cpu: []cpuSample{sample()}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				run.cpu = append(run.cpu, sample())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				req := w.At(i)
				t0 := time.Now()
				status, sum, err := do(req)
				t1 := time.Now()
				per[k] = append(per[k], outcome{index: i, done: t1.Sub(start), latency: t1.Sub(t0), status: status, sum: sum, err: err})
			}
		}(k)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	close(stop)
	<-sampled
	run.cpu = append(run.cpu, sample())
	for _, o := range per {
		run.outs = append(run.outs, o...)
	}
	return run
}

// stats returns throughput (requests answered per second), latency
// p50 and p90, and how many requests they rest on, over the slices of
// the run in which the host stole the least CPU time: every slice whose
// steal share is at most the lower quartile of the slices' shares, so
// every slice on a machine nobody steals from. On a shared host, stolen
// time comes in bursts that stall a loopback request/reply loop for far
// longer than they last; the least-stolen quarter of a run repeats from
// run to run much better than the whole run, while the program's own
// cost shows in every slice. It prints the steal shares and the figures
// over all slices next to them.
func (r timedRun) stats() (rps, p50, p90 float64, samples int) {
	n := len(r.cpu) - 1
	shares := make([]float64, n)
	for k := range shares {
		if dt := r.cpu[k+1].total - r.cpu[k].total; dt > 0 {
			shares[k] = float64(r.cpu[k+1].steal-r.cpu[k].steal) / float64(dt)
		}
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit := sorted[(n-1)/4]
	var all, kept []float64
	var keptTime time.Duration
	keptSlices := 0
	for k, share := range shares {
		if share <= limit {
			keptTime += r.cpu[k+1].at - r.cpu[k].at
			keptSlices++
		}
	}
	for _, o := range r.outs {
		ms := float64(o.latency) / 1e6
		all = append(all, ms)
		k := sort.Search(n, func(k int) bool { return r.cpu[k+1].at >= o.done })
		if shares[min(k, n-1)] <= limit {
			kept = append(kept, ms)
		}
	}
	sort.Float64s(all)
	sort.Float64s(kept)
	total, steal := r.cpu[n].total-r.cpu[0].total, r.cpu[n].steal-r.cpu[0].steal
	fmt.Printf("slices: %d of %v, steal share %.1f%% over the run; %d slices with steal share <= %.1f%% kept\n",
		n, sliceLen, 100*ratio(float64(steal), float64(total)), keptSlices, 100*limit)
	fmt.Printf("all slices: %.1f req/s, p50 %.4f ms, p90 %.4f ms\n",
		float64(len(all))/r.elapsed.Seconds(), quantile(all, 0.5), quantile(all, 0.9))
	return float64(len(kept)) / keptTime.Seconds(), quantile(kept, 0.5), quantile(kept, 0.9), len(kept)
}
