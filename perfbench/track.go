package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
)

// warmupFrames matches the experiment suite's accuracy warm-up: the VO
// initialization window every clip shares is not scored.
const warmupFrames = 60

// trackSetupReps is how many times track-mixed repeats its set-up; setup_s
// is the median.
const trackSetupReps = 5

// stageMetric maps core's stage names to their per-layer metrics.
var stageMetric = map[string]string{
	core.StageMAMTPredict:  "core.mamt_predict_ms",
	core.StageMAMTZClip:    "core.mamt_zclip_ms",
	core.StageCFRSNewAreas: "core.cfrs_newareas_ms",
	core.StageCFRSDecide:   "core.cfrs_decide_ms",
	core.StageCFRSEncode:   "core.cfrs_encode_ms",
	core.StageCIIAPlan:     "core.ciia_plan_ms",
}

// Span names of the mobile timeline.
const (
	spanRun       = "pipeline.run"
	spanProcess   = "core.process_frame"
	spanResult    = "core.edge_result"
	spanBackend   = "pipeline.backend"
	spanSetup     = "bench.setup"
	spanCheck     = "bench.check"
	spanReplay    = "bench.replay"
	stageSpanPref = "stage."
)

func benchCamera() geom.Camera { return geom.StandardCamera(320, 240) }

// trackWorldSets is how many independent dataset.All mixes one pass runs.
// Tail latency and allocations follow the heaviest scenes, so a pass
// averages over four sets of worlds to keep one seed close to another; a
// pass takes about as long as a 30-second run must measure anyway.
const trackWorldSets = 4

// trackClips is the track-mixed clip set: trackWorldSets dataset.All mixes
// (DAVIS, KITTI, Xiph, self-recorded) derived from the seed, optionally
// truncated for toy runs.
func trackClips(o options) []dataset.Clip {
	var clips []dataset.Clip
	for k := int64(0); k < trackWorldSets; k++ {
		// dataset offsets its per-clip seeds by less than 100.
		clips = append(clips, dataset.All(o.seed+1000*k, o.clipFrames)...)
	}
	if o.clips > 0 && o.clips < len(clips) {
		clips = clips[:o.clips]
	}
	return clips
}

// engineSeed derives clip i's engine seed the way the experiment suite does.
func engineSeed(seed int64, i int) int64 { return seed + int64(i)*101 }

// timedStrategy decorates a pipeline.Strategy: it times every
// ProcessFrame (the mobile per-frame latency), records spans when traced,
// and forwards every optional interface the engine probes for.
type timedStrategy struct {
	inner pipeline.Strategy
	tr    *tracer // nil when untraced
	lat   []float64
	// results counts edge results handed to the strategy.
	results int
	// processed and featSum record, when traced, which frames were
	// processed and a checksum of their features, so the offline
	// extraction replay can be checked against what the engine extracted.
	processed []int
	featSum   uint64
}

var (
	_ pipeline.Strategy        = (*timedStrategy)(nil)
	_ pipeline.ResultAwaiter   = (*timedStrategy)(nil)
	_ pipeline.QueuePreference = (*timedStrategy)(nil)
)

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	if s.tr == nil {
		t0 := time.Now()
		out := s.inner.ProcessFrame(f, feats, nowMs)
		s.lat = append(s.lat, ms(time.Since(t0)))
		return out
	}
	s.processed = append(s.processed, f.Index)
	s.featSum += featureSum(feats)
	id := s.tr.begin(spanProcess)
	out := s.inner.ProcessFrame(f, feats, nowMs)
	s.tr.end(id)
	sp := s.tr.spans[id]
	s.lat = append(s.lat, ms(sp.end-sp.start))
	return out
}

func (s *timedStrategy) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	s.results++
	if s.tr == nil {
		s.inner.HandleEdgeResult(res, f, nowMs)
		return
	}
	id := s.tr.begin(spanResult)
	s.inner.HandleEdgeResult(res, f, nowMs)
	s.tr.end(id)
}

// AwaitingEdgeResult forwards pipeline.ResultAwaiter; a strategy without it
// never awaits, which is what the engine assumes when the probe fails.
func (s *timedStrategy) AwaitingEdgeResult() bool {
	if a, ok := s.inner.(pipeline.ResultAwaiter); ok {
		return a.AwaitingEdgeResult()
	}
	return false
}

// PreferredQueueDepth forwards pipeline.QueuePreference; 0 keeps the
// backend default, as when the probe fails.
func (s *timedStrategy) PreferredQueueDepth() int {
	if q, ok := s.inner.(pipeline.QueuePreference); ok {
		return q.PreferredQueueDepth()
	}
	return 0
}

// featureSum is an order-independent checksum of one frame's features.
func featureSum(feats []feature.Feature) uint64 {
	sum := uint64(len(feats))
	for _, f := range feats {
		sum += f.Descriptor ^ math.Float64bits(f.Pixel.X) ^ math.Float64bits(f.Pixel.Y)<<1
	}
	return sum
}

// tracedBackend decorates a pipeline.EdgeBackend with one span per call
// the engine makes during Run, forwarding the optional NoteDelivered hook.
type tracedBackend struct {
	pipeline.EdgeBackend
	tr *tracer
}

func (b *tracedBackend) Submit(req *pipeline.OffloadRequest, sendAt float64) []pipeline.ScheduledResult {
	id := b.tr.begin(spanBackend)
	defer b.tr.end(id)
	return b.EdgeBackend.Submit(req, sendAt)
}

func (b *tracedBackend) Advance(now float64) []pipeline.ScheduledResult {
	id := b.tr.begin(spanBackend)
	defer b.tr.end(id)
	return b.EdgeBackend.Advance(now)
}

func (b *tracedBackend) Outstanding() int {
	id := b.tr.begin(spanBackend)
	defer b.tr.end(id)
	return b.EdgeBackend.Outstanding()
}

func (b *tracedBackend) Wait(d time.Duration) bool {
	id := b.tr.begin(spanBackend)
	defer b.tr.end(id)
	return b.EdgeBackend.Wait(d)
}

func (b *tracedBackend) Stats() pipeline.BackendStats {
	id := b.tr.begin(spanBackend)
	defer b.tr.end(id)
	return b.EdgeBackend.Stats()
}

// NoteDelivered forwards the engine's delivery notification to backends
// that release queue slots on it (pipeline.LoopbackBackend).
func (b *tracedBackend) NoteDelivered() {
	if o, ok := b.EdgeBackend.(interface{ NoteDelivered() }); ok {
		o.NoteDelivered()
	}
}

// stageSpans turns core.StageObserver reports into child spans of the
// enclosing ProcessFrame span.
type stageSpans struct{ tr *tracer }

func (s stageSpans) ObserveStage(_ int, stage string, elapsed time.Duration) {
	s.tr.child(stageSpanPref+stage, elapsed)
}

// clipRun is one clip ready to run through a fresh mobile system.
type clipRun struct {
	clip  dataset.Clip
	seed  int64
	sys   *core.System
	strat *timedStrategy
	eng   *pipeline.Engine
}

// newClipRun builds a clip's engine around a fresh edgeIS system. Untraced
// runs leave the edge to the engine's default simulated backend; traced runs build the same backend
// explicitly and wrap it, so a digest mismatch between the two shows any
// difference the decorators introduce.
func newClipRun(clip dataset.Clip, seed int64, tr *tracer, heap *heapPeak) *clipRun {
	cam := benchCamera()
	sys := core.NewSystem(core.Config{Camera: cam, Seed: seed})
	strat := &timedStrategy{inner: sys, tr: tr}
	cfg := pipeline.Config{
		World:       clip.World,
		Camera:      cam,
		Trajectory:  clip.Traj,
		Frames:      clip.Frames,
		CameraSpeed: clip.CameraSpeed,
		Medium:      netsim.WiFi5,
		Seed:        seed,
		OnFrame:     func(pipeline.FrameEval) { heap.observe() },
	}
	if tr != nil {
		sys.SetStageObserver(stageSpans{tr})
		cfg.Backend = &tracedBackend{EdgeBackend: newSimBackend(seed), tr: tr}
	}
	return &clipRun{clip: clip, seed: seed, sys: sys, strat: strat, eng: pipeline.NewEngine(cfg, strat)}
}

func newPass(clips []dataset.Clip, seed int64, tr *tracer, heap *heapPeak) []*clipRun {
	runs := make([]*clipRun, len(clips))
	for i, c := range clips {
		runs[i] = newClipRun(c, engineSeed(seed, i), tr, heap)
	}
	return runs
}

// evalDigest fingerprints a clip run's per-frame evaluations and stats.
func evalDigest(evals []pipeline.FrameEval, st pipeline.RunStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	for _, ev := range evals {
		put(uint64(ev.Index))
		put(uint64(len(ev.IoUs)))
		for _, v := range ev.IoUs {
			f(v)
		}
		f(ev.LatencyMs)
		f(ev.StalenessMs)
		flag(ev.Dropped)
		flag(ev.Offloaded)
	}
	for _, v := range []int{st.Frames, st.Offloads, st.DroppedFrames, st.UplinkBytes,
		st.DownlinkBytes, st.EdgeResultCount, st.DroppedOffloads, st.DiscardedResults} {
		put(uint64(v))
	}
	f(st.EdgeInferMsSum)
	f(st.MobileBusyMsSum)
	return h.Sum64()
}

// trackPhase accumulates one measurement phase of track-mixed.
type trackPhase struct {
	tr        *tracer // nil when untraced
	heap      *heapPeak
	frames    int
	runs      int // clip runs
	runWall   time.Duration
	lat       []float64
	allocs    uint64
	maskAlloc uint64
	offloads  int
	results   int
	// edge and stale count edge results the system consumed and found
	// too old.
	edge, stale     int
	acc             *metrics.Accumulator // first pass only
	digests         [][]uint64           // per pass, per clip
	extract         time.Duration
	extractMismatch int
	wall            time.Duration
}

// runClip runs clip i of the clip set and folds it into the phase; clip 0
// starts a new pass. The clip's engine is built just before it runs and
// dropped after, so the heap holds one rendered clip at a time, as one
// phone would.
func (p *trackPhase) runClip(clips []dataset.Clip, i int, seed int64) {
	if i == 0 {
		p.digests = append(p.digests, nil)
	}
	pass := len(p.digests) - 1
	clip := clips[i]
	done := p.tr.span(spanSetup)
	r := newClipRun(clip, engineSeed(seed, i), p.tr, p.heap)
	done()

	m0, a0 := mallocs(), mask.Allocs()
	done = p.tr.span(spanRun)
	t0 := time.Now()
	evals, st := r.eng.Run()
	d := time.Since(t0)
	done()
	m1, a1 := mallocs(), mask.Allocs()

	done = p.tr.span(spanCheck)
	p.runs++
	p.runWall += d
	p.allocs += m1 - m0
	p.maskAlloc += a1 - a0
	p.frames += len(evals)
	p.lat = append(p.lat, r.strat.lat...)
	p.offloads += st.Offloads
	p.results += r.strat.results
	ss := r.sys.Stats()
	p.edge += ss.EdgeResults
	p.stale += ss.StaleResults
	p.digests[pass] = append(p.digests[pass], evalDigest(evals, st))
	if pass == 0 {
		p.acc.Merge(pipeline.EvaluateFrom(r.sys.Name(), evals, warmupFrames))
	}
	done()
	if p.tr != nil {
		p.replayExtract(r)
	}
}

// replayExtractReps is how many times each clip's extraction replay runs;
// the median is kept, so a GC cycle paced by the engine's allocation that
// lands in one replay does not count as extraction time.
const replayExtractReps = 3

// replayExtract re-runs feature extraction on the frames the engine
// processed, in the same order with a fresh extractor of the same seed, so
// its wall time stands in for the extraction inside Engine.Run.
func (p *trackPhase) replayExtract(r *clipRun) {
	id := p.tr.begin(spanReplay)
	defer p.tr.end(id)
	frames := r.eng.Frames()
	durs := make([]float64, 0, replayExtractReps)
	for rep := 0; rep < replayExtractReps; rep++ {
		ex := feature.NewExtractor(r.clip.World, benchCamera(), feature.DefaultConfig(), r.seed)
		var sum uint64
		t0 := time.Now()
		for _, idx := range r.strat.processed {
			sum += featureSum(ex.Extract(frames[idx], r.clip.CameraSpeed))
		}
		durs = append(durs, float64(time.Since(t0)))
		if sum != r.strat.featSum {
			p.extractMismatch++
		}
	}
	p.extract += time.Duration(median(durs))
}

// measure runs the clips in order, over and over, until the phase has
// lasted at least seconds and has run one whole pass (the reference for
// accuracy and the eval digests). It stops only at the end of a
// dataset.All mix, so every scene type weighs the same in every run, and a
// run overshoots seconds by less than one mix rather than one pass.
func (p *trackPhase) measure(clips []dataset.Clip, o options) {
	mix := len(clips) / trackWorldSets
	if mix == 0 || len(clips)%trackWorldSets != 0 {
		mix = len(clips) // a truncated toy clip set
	}
	runtime.GC() // set-up garbage must not count toward the phase's heap peak
	t0 := time.Now()
	for n := 1; ; n++ {
		p.runClip(clips, (n-1)%len(clips), o.seed)
		if n >= len(clips) && n%mix == 0 && time.Since(t0).Seconds() >= o.seconds {
			break
		}
	}
	p.wall = time.Since(t0)
}

func (p *trackPhase) e2e(setupS float64) map[string]float64 {
	return map[string]float64{
		"fps":              float64(p.frames) / p.runWall.Seconds(),
		"lat_ms_p50":       quantile(p.lat, 0.50),
		"lat_ms_p99":       quantile(p.lat, 0.99),
		"allocs_per_frame": float64(p.allocs) / float64(p.frames),
		"mem_peak_mb":      p.heap.mib(),
		"served_ratio":     float64(p.results) / float64(p.offloads),
		"iou":              p.acc.MeanIoU(),
		"setup_s":          setupS,
	}
}

// checkDigests compares every pass of p against the reference digests.
func checkDigests(out *outcome, what string, ref []uint64, passes [][]uint64) {
	for pi, ds := range passes {
		for ci, d := range ds {
			if d != ref[ci] {
				out.failed++
				out.failf("track-mixed: %s pass %d clip %d eval digest %016x, want %016x", what, pi+1, ci, d, ref[ci])
			}
		}
	}
}

func runTrack(o options, log io.Writer) (*outcome, error) {
	clips := trackClips(o)
	newPhase := func(tr *tracer) *trackPhase {
		return &trackPhase{tr: tr, heap: newHeapPeak(), acc: metrics.NewAccumulator("edgeIS")}
	}

	// Set-up is rendering the clips and building their engines; the
	// measured passes build each clip's engine again just before it runs.
	_, setupS, err := repeatMedian(trackSetupReps, func() ([]*clipRun, error) {
		return newPass(trackClips(o), o.seed, nil, newHeapPeak()), nil
	})
	if err != nil {
		return nil, err
	}
	untraced := newPhase(nil)
	untraced.measure(clips, o)
	out := &outcome{e2e: untraced.e2e(setupS), attempted: untraced.frames}
	ref := untraced.digests[0]
	checkDigests(out, "untraced", ref, untraced.digests[1:])
	// Run the first clip once more on a fresh system: one seed must give
	// the same per-frame evaluations every time.
	again := newClipRun(clips[0], engineSeed(o.seed, 0), nil, newHeapPeak())
	checkDigests(out, "repeated", ref[:1], [][]uint64{{evalDigest(again.eng.Run())}})
	fmt.Fprintf(log, "track-mixed: %d clips x %d frames, %d clip runs, %d ProcessFrame samples\n",
		len(clips), o.clipFrames, untraced.runs, len(untraced.lat))
	if !o.trace {
		return out, nil
	}

	traced := newPhase(newTracer())
	traced.measure(clips, o)
	checkDigests(out, "traced", ref, traced.digests)
	te2e := traced.e2e(setupS)
	if te2e["iou"] != out.e2e["iou"] {
		out.failf("track-mixed: traced iou %v != untraced %v", te2e["iou"], out.e2e["iou"])
	}
	if traced.extractMismatch > 0 {
		out.failf("track-mixed: %d clips' extraction replay saw different features than the engine", traced.extractMismatch)
	}
	out.layers = traced.layers(out)
	setOverhead(out.layers, out.e2e, te2e)
	return out, nil
}

// layers derives the per-layer metrics of a traced phase and checks that
// the spans account for its wall time.
func (p *trackPhase) layers(out *outcome) map[string]float64 {
	total, self := p.tr.totals()
	perFrame := func(d time.Duration) float64 { return ms(d) / float64(p.frames) }
	l := map[string]float64{}
	tracking := 0
	for _, s := range p.tr.spans {
		if s.name == stageSpanPref+core.StageMAMTPredict {
			tracking++
		}
	}
	for stage, name := range stageMetric {
		l[name] = perFrame(total[stageSpanPref+stage])
	}
	engineSelf := self[spanRun] - p.extract
	l["core.process_frame_ms"] = perFrame(total[spanProcess])
	l["core.vo_ms"] = perFrame(self[spanProcess])
	l["core.edge_result_ms"] = perFrame(total[spanResult])
	l["feature.extract_ms"] = perFrame(p.extract)
	l["pipeline.backend_ms"] = perFrame(total[spanBackend])
	l["pipeline.engine_self_ms"] = perFrame(engineSelf)
	l["mask.pool_allocs_per_frame"] = float64(p.maskAlloc) / float64(p.frames)
	if tracking > 0 {
		l["core.offload_ratio"] = float64(p.offloads) / float64(tracking)
	}
	if p.edge > 0 {
		l["core.stale_ratio"] = float64(p.stale) / float64(p.edge)
	}
	// The replay runs inside the phase but outside Engine.Run; it is not
	// part of the workload's wall time.
	wall := p.wall - total[spanReplay]
	l["trace.unaccounted_ratio"] = 1 - float64(p.tr.rootTime(spanReplay))/float64(wall)
	checkAccounting(out, "track-mixed", l)
	setLayerDefaults(l)
	return l
}
