package service

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tradeoff/internal/obs"
)

// promQuantiles are the summary quantiles every duration histogram
// exposes — the p50/p95/p99 the paper-style accounting wants for its
// own serving path.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// servePrometheus renders the same instruments as the JSON document
// in Prometheus text exposition format (version 0.0.4): the scalars
// as counters and gauges, per-endpoint labeled counters, and the
// duration histograms as summaries with p50/p95/p99. Output ordering
// is deterministic (endpoints sorted), so a fixed metric state renders
// fixed bytes — pinned by a golden test.
func (m *metrics) servePrometheus(w http.ResponseWriter) {
	var buf bytes.Buffer

	for _, sc := range m.scalars() {
		sc.writeProm(&buf)
	}

	// Continuous cross-validation: pass counter plus the latest
	// per-workload hit-ratio error of the analytic model against the
	// exact MRC tier, next to the committed epsilon budget.
	passes, xvalNames, xvalSamples := m.xvalSnapshot()
	scalar{"xval_passes_total", "Cross-validation passes completed by the model-vs-exact loop.", "counter",
		func() int64 { return passes }}.writeProm(&buf)
	for _, g := range []struct {
		name, help string
		get        func(xvalSample) float64
	}{
		{"tradeoffd_xval_max_abs_error", "Largest |model - exact| hit-ratio error of the workload's latest validation pass.", func(s xvalSample) float64 { return s.MaxAbs }},
		{"tradeoffd_xval_mean_abs_error", "Mean |model - exact| hit-ratio error of the workload's latest validation pass.", func(s xvalSample) float64 { return s.MeanAbs }},
		{"tradeoffd_xval_error_budget", "Committed hit-ratio error budget for the workload (model.ErrorBound).", func(s xvalSample) float64 { return s.Budget }},
	} {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for i, name := range xvalNames {
			fmt.Fprintf(&buf, "%s{workload=%q} %s\n", g.name, name,
				strconv.FormatFloat(g.get(xvalSamples[i]), 'g', -1, 64))
		}
	}

	// Per-endpoint counters, one labeled series per endpoint in route
	// order.
	for _, c := range []struct {
		name string
		get  func(*endpointStats) int64
	}{
		{"requests", func(ep *endpointStats) int64 { return ep.requests.Load() }},
		{"errors", func(ep *endpointStats) int64 { return ep.errors.Load() }},
		{"evaluations", func(ep *endpointStats) int64 { return ep.evaluations.Load() }},
	} {
		fmt.Fprintf(&buf, "# TYPE tradeoffd_endpoint_%s counter\n", c.name)
		for _, ep := range m.endpoints {
			fmt.Fprintf(&buf, "tradeoffd_endpoint_%s{endpoint=%q} %d\n", c.name, ep.route, c.get(ep))
		}
	}

	// Request durations: one summary per endpoint.
	buf.WriteString("# HELP tradeoffd_request_duration_seconds Request duration by endpoint.\n")
	buf.WriteString("# TYPE tradeoffd_request_duration_seconds summary\n")
	for _, ep := range m.endpoints {
		promSummarySeries(&buf, "tradeoffd_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep.route), ep.duration)
	}

	// Engine-level instruments: where parallel evaluation time goes.
	if st := m.engine; st != nil {
		promHistogramSummary(&buf, st.Eval)
		promHistogramSummary(&buf, st.QueueWait)
		for _, c := range []*obs.Counter{st.MemoHit, st.MemoMiss, st.MemoShared} {
			scalar{c.Name(), "Engine memoization outcome count.", "counter", c.Value}.writeProm(&buf)
		}
	}

	// SLO burn-rate gauges — appended after every other block and only
	// when objectives are configured, so the default document stays
	// byte-identical to a server without an SLO layer.
	if m.slo != nil {
		promSLOGauges(&buf, m.slo())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes()) // a failed write means the client left
}

// writeProm writes the scalar as one unlabeled tradeoffd_ series with
// its HELP and TYPE header.
func (sc scalar) writeProm(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# HELP tradeoffd_%[1]s %[2]s\n# TYPE tradeoffd_%[1]s %[3]s\ntradeoffd_%[1]s %[4]d\n",
		sc.name, sc.help, sc.kind, sc.value())
}

// promHistogramSummary writes an unlabeled duration histogram as a
// full summary block named after the histogram.
func promHistogramSummary(buf *bytes.Buffer, h *obs.Histogram) {
	name := "tradeoffd_" + h.Name() + "_seconds"
	fmt.Fprintf(buf, "# TYPE %s summary\n", name)
	promSummarySeries(buf, name, "", h)
}

// promSummarySeries writes one summary series (quantiles, _sum,
// _count) for h, labeled with labels when non-empty.
func promSummarySeries(buf *bytes.Buffer, name, labels string, h *obs.Histogram) {
	for _, q := range promQuantiles {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(buf, "%s{%s%squantile=%q} %s\n",
			name, labels, sep, strconv.FormatFloat(q, 'g', -1, 64), promSeconds(h.Quantile(q)))
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, labels, promSeconds(h.Sum()))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, labels, h.Count())
}

// promSeconds formats a duration as Prometheus seconds.
func promSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
