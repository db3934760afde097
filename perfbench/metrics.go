package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef names one printed metric and its unit. The lists mirror
// BENCHMARK.json's end_to_end and per_layer entries; a test keeps them in
// step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is printed by every workload with -trace 0. Figures a workload
// cannot produce are defined in BENCHMARK.json's notes rather than left
// out, so every workload prints the whole set.
var endToEnd = []metricDef{
	{"fps", "frames/s"},
	{"lat_ms_p50", "ms"},
	{"lat_ms_p99", "ms"},
	{"allocs_per_frame", "allocs"},
	{"mem_peak_mb", "MiB"},
	{"served_ratio", "ratio"},
	{"iou", "ratio"},
	{"setup_s", "s"},
}

// overheadOf lists the end-to-end metrics whose tracing overhead the
// traced run reports as trace.overhead.<name>.
var overheadOf = []string{"fps", "lat_ms_p50", "lat_ms_p99", "allocs_per_frame", "mem_peak_mb"}

// perLayer is printed by every workload with -trace 1. A layer the
// workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"core.process_frame_ms", "ms/frame"},
	{"core.mamt_predict_ms", "ms/frame"},
	{"core.mamt_zclip_ms", "ms/frame"},
	{"core.cfrs_newareas_ms", "ms/frame"},
	{"core.cfrs_decide_ms", "ms/frame"},
	{"core.cfrs_encode_ms", "ms/frame"},
	{"core.ciia_plan_ms", "ms/frame"},
	{"core.vo_ms", "ms/frame"},
	{"core.edge_result_ms", "ms/frame"},
	{"feature.extract_ms", "ms/frame"},
	{"pipeline.backend_ms", "ms/frame"},
	{"pipeline.engine_self_ms", "ms/frame"},
	{"mask.pool_allocs_per_frame", "allocs"},
	{"core.offload_ratio", "ratio"},
	{"core.stale_ratio", "ratio"},
	{"transport.frame_encode_us", "us"},
	{"transport.frame_decode_us", "us"},
	{"transport.result_build_ms", "ms"},
	{"transport.result_encode_us", "us"},
	{"transport.result_decode_us", "us"},
	{"transport.up_bytes", "bytes"},
	{"transport.down_bytes", "bytes"},
	{"transport.wire_ms", "ms"},
	{"segmodel.run_ms", "ms"},
	{"segmodel.warped_ms", "ms"},
	{"edge.infer_ms", "ms"},
	{"edge.handoff_ms", "ms"},
	{"edge.wait_ms_mean", "ms"},
	{"edge.wait_ms_p95", "ms"},
	{"edge.queue_depth_mean", "count"},
	{"edge.batch_size_mean", "count"},
	{"edge.keyframe_ratio", "ratio"},
	{"edge.rejected", "count"},
	{"edge.shed", "count"},
	{"edge.session_bytes", "bytes"},
	{"gen.late_ms_p99", "ms"},
	{"gen.offered", "count"},
	{"gen.served", "count"},
	{"gen.dropped", "count"},
	{"trace.unaccounted_ratio", "ratio"},
}, overheadDefs()...)

func overheadDefs() []metricDef {
	out := make([]metricDef, 0, len(overheadOf))
	for _, n := range overheadOf {
		out = append(out, metricDef{"trace.overhead." + n, "ratio"})
	}
	return out
}

// accountingTolerance is the share of a workload's traced wall time that
// may fall outside every recorded span before the trace counts as
// incomplete.
const accountingTolerance = 0.05

// setLayerDefaults fills every per-layer metric the workload did not set
// with 0 (the layer did no work in this workload).
func setLayerDefaults(layers map[string]float64) {
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok {
			layers[d.name] = 0
		}
	}
}

// setOverhead records how much tracing moved each end-to-end metric, as
// traced/untraced - 1.
func setOverhead(layers, untraced, traced map[string]float64) {
	for _, n := range overheadOf {
		if untraced[n] != 0 {
			layers["trace.overhead."+n] = traced[n]/untraced[n] - 1
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// rateChunk is how many consecutive completions one throughput sample
// spans: about half a second of either workload at full speed.
const rateChunk = 256

// medianRate is a run's throughput as the median over chunks of rateChunk
// consecutive completions of rateChunk / the chunk's elapsed time. Host
// noise that stalls a few chunks then moves the figure as little as it
// moves a latency median, where events / wall would carry every stall. at
// holds completion times on one clock in any order (it is sorted in place);
// a run too short for two chunks falls back to events / wall.
func medianRate(at []time.Duration, wall time.Duration) float64 {
	n := len(at) / rateChunk
	if n < 2 {
		return float64(len(at)) / wall.Seconds()
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	rates := make([]float64, 0, n)
	for k := rateChunk; k < len(at); k += rateChunk {
		rates = append(rates, rateChunk/(at[k]-at[k-rateChunk]).Seconds())
	}
	return median(rates)
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapPeak tracks the largest Go heap in use (bytes occupied by heap
// objects) across samples; runtime/metrics reads it without stopping the
// world, so sampling once per frame or result is cheap.
type heapPeak struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }

// tracer records spans for one goroutine's timeline. Spans nest through an
// explicit stack; a layer's self time is its span minus the part covered by
// its children. Spans stay in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root span
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// span opens a span and returns the function that closes it. On a nil
// tracer (an untraced run) both halves do nothing.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.begin(name)
	return func() { t.end(id) }
}

// child records an already finished span of the given length that ended
// now, under the innermost open span (how core.StageObserver reports).
func (t *tracer) child(name string, elapsed time.Duration) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{name: name, parent: parent, start: now - elapsed, end: now})
}

// totals returns the summed span duration and self time per span name.
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return total, self
}

// rootTime sums the durations of root spans, except those named in skip.
func (t *tracer) rootTime(skip ...string) time.Duration {
	var sum time.Duration
outer:
	for _, s := range t.spans {
		if s.parent >= 0 {
			continue
		}
		for _, k := range skip {
			if s.name == k {
				continue outer
			}
		}
		sum += s.end - s.start
	}
	return sum
}

// isSelfTime reports whether a per-layer metric is a layer's time.
func isSelfTime(name string) bool {
	if strings.HasPrefix(name, "trace.") {
		return false
	}
	return strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_us")
}

// checkAccounting fails the run when a self time is negative or the spans
// leave more than accountingTolerance of the wall time unaccounted.
func checkAccounting(out *outcome, workload string, l map[string]float64) {
	for name, v := range l {
		if v < 0 && isSelfTime(name) {
			out.failf("%s: layer %s self time %v < 0", workload, name, v)
		}
	}
	if u := l["trace.unaccounted_ratio"]; math.Abs(u) > accountingTolerance {
		out.failf("%s: spans leave %.1f%% of traced wall time unaccounted (tolerance %.0f%%)",
			workload, 100*u, 100*accountingTolerance)
	}
}
