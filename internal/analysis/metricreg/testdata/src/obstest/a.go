package obstest

import "obs"

var (
	evalHist  = obs.NewHistogram("engine_eval_duration")
	queueHist = obs.NewHistogram("QueueWait")            // want `metric name "QueueWait" is not snake_case`
	dupHist   = obs.NewHistogram("engine_eval_duration") // want `obs metric "engine_eval_duration" registered more than once`
	hits      = obs.NewCounter("memo_hits")
	dashes    = obs.NewCounter("memo-hits") // want `metric name "memo-hits" is not snake_case`
	dupKind   = obs.NewCounter("memo_hits") // want `obs metric "memo_hits" registered more than once`
)

func dynamic(name string) {
	obs.NewHistogram(name) // non-constant: out of scope
	evalHist.Observe(1)    // method call, not a registration
}

func historySeries(h *obs.History, route string) {
	h.Register("requests_total", func() float64 { return 0 })
	h.Register("HeapBytes", func() float64 { return 0 })      // want `metric name "HeapBytes" is not snake_case`
	h.Register("requests_total", func() float64 { return 0 }) // want `history series "requests_total" registered more than once`
	// History names are a namespace of their own: sharing a name with
	// an obs instrument is the documented pattern.
	h.Register("memo_hits", func() float64 { return 0 })
	h.Register("endpoint_"+route, func() float64 { return 0 }) // computed: out of scope
	h.RegisterCounter(hits)                                    // no name argument, not a registration
}

func suppressed() {
	//lint:ignore metricreg exercising the suppression path
	obs.NewCounter("Legacy-Counter")
}

var _, _, _, _, _ = evalHist, queueHist, dupHist, dashes, dupKind
