package pipeline

import (
	"time"

	"edgeis/internal/netsim"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
)

// DropPolicy names a backend's behaviour when its offload queue is full.
type DropPolicy uint8

const (
	// DropOldest replaces the oldest waiting offload with the newcomer:
	// latest-wins, the discipline a real-time edge queue wants.
	DropOldest DropPolicy = iota
	// DropNewest rejects the incoming offload when the queue is full — the
	// behaviour of a bounded send queue in front of a socket.
	DropNewest
)

// BackendStats is the accounting every backend reports, so simulated and
// live runs describe offload loss and edge work identically.
type BackendStats struct {
	// Submitted counts offloads the backend accepted.
	Submitted int
	// DroppedOffloads counts offloads lost to queue overflow (either end).
	DroppedOffloads int
	// DiscardedResults counts results thrown away because their frame index
	// was out of range for the running clip.
	DiscardedResults int
	// MigratedOffloads counts offloads lost in flight to a replica kill
	// under a sharded backend (FleetSimBackend): accepted by the edge but
	// still waiting when it died. Always zero on single-edge backends.
	MigratedOffloads int
	// Results counts inference results produced (sim) or received (live).
	Results int
	// InferMsSum accumulates edge inference latency across Results.
	InferMsSum float64
	// UplinkBytes and DownlinkBytes account the modelled wire volume.
	UplinkBytes   int
	DownlinkBytes int
}

// CountDropped and CountDiscarded are the audited mutators for the loss
// counters shared by every backend (sim, loopback, live): routing each
// dropped offload and discarded result through them keeps the conservation
// law's loss side greppable across simulated and live runs alike.

func (s *BackendStats) CountDropped(n int) { s.DroppedOffloads += n }

func (s *BackendStats) CountDiscarded() { s.DiscardedResults++ }

func (s *BackendStats) CountMigrated(n int) { s.MigratedOffloads += n }

// ScheduledResult is an edge result with its simulated delivery time. Live
// backends stamp results with the poll time — the earliest simulated instant
// the mobile could observe them.
type ScheduledResult struct {
	At  float64
	Res EdgeResult
}

// EdgeBackend is the edge half of the offload loop: the engine submits
// encoded frames and receives asynchronous EdgeResult deliveries. A backend
// owns its queue discipline (depth, drop policy) and reports drops and
// discards through Stats, so every engine run accounts offload loss the same
// way regardless of what serves the inferences.
//
// Submit and Advance return result deliveries as soon as their timing is
// known; the engine turns them into edge-result events on its scheduler.
// All methods are called from the engine goroutine only.
type EdgeBackend interface {
	// Name identifies the backend in reports.
	Name() string
	// Bind hands the backend the rendered clip and the strategy's preferred
	// queue depth before the run starts (depth <= 0 keeps the default).
	Bind(frames []*scene.Frame, queueDepth int)
	// Submit ships an offload at simulated time sendAt.
	Submit(req *OffloadRequest, sendAt float64) []ScheduledResult
	// Advance drives backend bookkeeping to simulated time now: simulated
	// backends service their queue; live backends drain their socket without
	// blocking. Returned results may be due at or before now.
	Advance(now float64) []ScheduledResult
	// Outstanding reports offloads submitted but not yet surfaced as results.
	Outstanding() int
	// Wait blocks up to d of wall-clock time for a result to become
	// available. Simulated backends return false immediately: their results
	// only move on Advance.
	Wait(d time.Duration) bool
	// Stats returns the accounting so far.
	Stats() BackendStats
	// Close releases backend resources.
	Close() error
}

// waitingOffload is a request queued for the simulated edge.
type waitingOffload struct {
	arrival float64
	req     *OffloadRequest
	// decision is the keyframe classification made at Submit time; it rides
	// the queue so the launch charges the matching cost shape.
	decision segmodel.KeyframeDecision
}

// SimBackend is the simulated edge: an uplink and downlink from netsim and a
// segmodel edge model, with a bounded latest-wins queue in front of a pool
// of accelerators (default one). It reproduces the legacy Engine.Run
// scheduling exactly — the order of link and model calls is load-bearing for
// determinism, since links carry RNG state and a busy horizon. With one
// accelerator the busy-horizon math is identical to the historical single
// edgeFreeAt field, so golden runs are byte-stable.
type SimBackend struct {
	model      *segmodel.Model
	inferScale float64
	uplink     *netsim.Link
	downlink   *netsim.Link
	seed       int64
	frames     []*scene.Frame
	queueDepth int
	// maxBatch bounds how many compatible waiting offloads one accelerator
	// launch may serve; 1 is the historical one-job-per-launch edge.
	maxBatch int
	// freeAt is the busy horizon of each simulated accelerator; requests are
	// served FIFO on the earliest-free one (lowest index breaks ties).
	freeAt  []float64
	waiting []waitingOffload
	// keyframe is the skip-compute state of the backend's single client
	// stream.
	keyframe segmodel.KeyframeStream
	stats    BackendStats
}

// SimBackendConfig assembles a simulated edge.
type SimBackendConfig struct {
	// Model is the edge model; nil defaults to Mask R-CNN.
	Model *segmodel.Model
	// InferScale multiplies inference latency (device.Profile.InferScale);
	// zero means 1.
	InferScale float64
	// Profile is the link behaviour for both directions.
	Profile netsim.Profile
	// Seed derives the two link RNG streams and per-frame model noise.
	Seed int64
	// Accelerators sizes the simulated inference pool; zero or one keeps
	// the deterministic single-accelerator edge.
	Accelerators int
	// MaxBatch bounds the batch former: an accelerator launch may serve up
	// to this many waiting offloads of one guidance class in one amortized
	// launch (segmodel.BatchMs). Zero or one keeps the historical
	// one-job-per-launch edge, whose event order the goldens pin.
	MaxBatch int
	// Keyframe enables temporal-redundancy skip-compute: non-keyframes warp
	// the stream's cached backbone pyramid at partial cost instead of
	// recomputing it. The zero policy keeps every frame a keyframe and the
	// schedule byte-identical to a build without the feature cache.
	Keyframe segmodel.KeyframePolicy
}

// NewSimBackend builds the simulated edge backend.
func NewSimBackend(cfg SimBackendConfig) *SimBackend {
	if cfg.Model == nil {
		cfg.Model = segmodel.New(segmodel.MaskRCNN)
	}
	if cfg.InferScale == 0 {
		cfg.InferScale = 1
	}
	if cfg.Accelerators < 1 {
		cfg.Accelerators = 1
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	return &SimBackend{
		model:      cfg.Model,
		inferScale: cfg.InferScale,
		uplink:     netsim.NewLink(cfg.Profile, cfg.Seed+1),
		downlink:   netsim.NewLink(cfg.Profile, cfg.Seed+2),
		seed:       cfg.Seed,
		queueDepth: 1,
		maxBatch:   cfg.MaxBatch,
		freeAt:     make([]float64, cfg.Accelerators),
		keyframe:   segmodel.NewKeyframeStream(cfg.Keyframe),
	}
}

// earliestFree picks the accelerator that frees up first, lowest index
// winning ties so single-accelerator runs reduce to the legacy math.
func (b *SimBackend) earliestFree() (int, float64) {
	idx, free := 0, b.freeAt[0]
	for i := 1; i < len(b.freeAt); i++ {
		if b.freeAt[i] < free {
			idx, free = i, b.freeAt[i]
		}
	}
	return idx, free
}

// Name implements EdgeBackend.
func (b *SimBackend) Name() string { return "sim" }

// Bind implements EdgeBackend.
func (b *SimBackend) Bind(frames []*scene.Frame, queueDepth int) {
	b.frames = frames
	if queueDepth > 0 {
		b.queueDepth = queueDepth
	}
}

// Submit models the uplink and enqueues at the edge. Queue overflow drops
// the oldest waiting offload (latest-wins) and counts it; a dropped keyframe
// additionally invalidates the feature cache, since the pyramid later frames
// were decided to warp from was never computed.
func (b *SimBackend) Submit(req *OffloadRequest, sendAt float64) []ScheduledResult {
	b.stats.Submitted++
	b.stats.UplinkBytes += req.PayloadBytes
	// Classify at submit time, in send order — the decision function is the
	// only place cross-frame cache state advances. With the policy off the
	// decision is constant and no model input is built here.
	var in segmodel.Input
	if b.keyframe.Enabled() {
		in = modelInput(b.frames, b.seed, req)
	}
	d := b.keyframe.Decide(in, req.Guidance)
	upMs := b.uplink.TransferMs(sendAt, req.PayloadBytes)
	arrive := sendAt + upMs
	out := b.advance(arrive)
	item := waitingOffload{arrival: arrive, req: req, decision: d}
	if accel, free := b.earliestFree(); free <= arrive && len(b.waiting) == 0 {
		return append(out, b.startBatch([]waitingOffload{item}, arrive, accel)...)
	}
	b.waiting = append(b.waiting, item)
	if len(b.waiting) > b.queueDepth {
		stale := b.waiting[0]
		b.waiting = b.waiting[1:]
		b.stats.CountDropped(1)
		b.keyframe.Lost(stale.decision)
	}
	return out
}

// Advance implements EdgeBackend: it services waiting requests (FIFO) while
// the edge is free.
func (b *SimBackend) Advance(now float64) []ScheduledResult { return b.advance(now) }

func (b *SimBackend) advance(now float64) []ScheduledResult {
	var out []ScheduledResult
	for len(b.waiting) > 0 {
		accel, free := b.earliestFree()
		if free > now {
			break
		}
		item := b.waiting[0]
		start := free
		if item.arrival > start {
			start = item.arrival
		}
		if start > now {
			break
		}
		b.waiting = b.waiting[1:]
		// Batch former: extend the head with waiting offloads that have
		// already arrived by the launch instant and share its guidance
		// class (a guided two-stage pass evaluates a different network
		// slice than a vanilla one, so the classes never co-batch) and its
		// keyframe class (a full backbone and a cache warp are different
		// cost shapes; with the policy off every decision is a keyframe, so
		// the predicate reduces to the historical guidance-only test). With
		// maxBatch 1 the head launches alone.
		batch := []waitingOffload{item}
		guided := item.req.Guidance != nil
		for i := 0; len(batch) < b.maxBatch && i < len(b.waiting); {
			w := b.waiting[i]
			if w.arrival <= start && (w.req.Guidance != nil) == guided &&
				w.decision.Keyframe == item.decision.Keyframe {
				batch = append(batch, w)
				b.waiting = append(b.waiting[:i], b.waiting[i+1:]...)
			} else {
				i++
			}
		}
		out = append(out, b.startBatch(batch, start, accel)...)
	}
	return out
}

// startBatch serves a gathered batch in one amortized launch: every member
// occupies the accelerator for segmodel.BatchMs over the members' scaled
// solo latencies and completes together, then each result rides the
// downlink in queue order. A one-job batch costs exactly its solo latency.
// The keyframe decision picks each member's cost shape: keyframes run the
// full model (RunWarped is exactly Run then), non-keyframes charge the
// partial warp cost.
func (b *SimBackend) startBatch(batch []waitingOffload, startAt float64, accel int) []ScheduledResult {
	results := make([]*segmodel.Result, len(batch))
	solos := make([]float64, len(batch))
	for i, item := range batch {
		in := modelInput(b.frames, b.seed, item.req)
		results[i] = b.model.RunWarped(in, item.req.Guidance, item.decision)
		solos[i] = results[i].TotalMs() * b.inferScale
	}
	launchMs := segmodel.BatchMs(solos)
	doneAt := startAt + launchMs
	b.freeAt[accel] = doneAt

	out := make([]ScheduledResult, 0, len(batch))
	for i, item := range batch {
		res := results[i]
		b.stats.InferMsSum += launchMs
		b.stats.Results++
		resultBytes := 256
		for _, d := range res.Detections {
			if d.Mask != nil {
				resultBytes += 16 + d.Mask.BoundingBox().Area()/64
			} else {
				resultBytes += 32
			}
		}
		b.stats.DownlinkBytes += resultBytes
		downMs := b.downlink.TransferMs(doneAt, resultBytes)
		out = append(out, ScheduledResult{
			At: doneAt + downMs,
			Res: EdgeResult{
				FrameIndex: item.req.FrameIndex,
				Detections: res.Detections,
				InferMs:    launchMs,
			},
		})
	}
	return out
}

// modelInput converts the offloaded frame's ground truth plus the encode
// quality map into the simulated model's input.
func modelInput(frames []*scene.Frame, seed int64, req *OffloadRequest) segmodel.Input {
	f := frames[req.FrameIndex]
	objs := make([]segmodel.ObjectTruth, 0, len(f.Objects))
	for _, gt := range f.Objects {
		objs = append(objs, segmodel.ObjectTruth{
			ObjectID: gt.ObjectID,
			Label:    int(gt.Class),
			Visible:  gt.Visible,
			Box:      gt.Box,
		})
	}
	return segmodel.Input{
		Width:   f.Camera.Width,
		Height:  f.Camera.Height,
		Objects: objs,
		Quality: req.Quality,
		Seed:    seed*1_000_003 + int64(req.FrameIndex),
	}
}

// Outstanding implements EdgeBackend.
func (b *SimBackend) Outstanding() int { return len(b.waiting) }

// Wait implements EdgeBackend: simulated results only move on Advance.
func (b *SimBackend) Wait(time.Duration) bool { return false }

// Stats implements EdgeBackend.
func (b *SimBackend) Stats() BackendStats { return b.stats }

// Close implements EdgeBackend.
func (b *SimBackend) Close() error { return nil }

// LoopbackBackend runs the edge model synchronously in-process: offloads
// incur inference latency on a single simulated accelerator but no network
// transfer — an idealized co-located edge. Its queue bounds the number of
// results still in flight; overflow rejects the incoming offload
// (DropNewest), mirroring a bounded send queue.
type LoopbackBackend struct {
	model      *segmodel.Model
	inferScale float64
	seed       int64
	frames     []*scene.Frame
	queueDepth int
	edgeFreeAt float64
	inflight   int
	keyframe   segmodel.KeyframeStream
	stats      BackendStats
}

// NewLoopbackBackend builds an in-process backend around a model (nil
// defaults to Mask R-CNN). InferScale <= 0 means 1.
func NewLoopbackBackend(model *segmodel.Model, inferScale float64, seed int64) *LoopbackBackend {
	if model == nil {
		model = segmodel.New(segmodel.MaskRCNN)
	}
	if inferScale <= 0 {
		inferScale = 1
	}
	return &LoopbackBackend{model: model, inferScale: inferScale, seed: seed, queueDepth: 4}
}

// SetKeyframePolicy enables temporal-redundancy skip-compute on the loopback
// edge. Must be called before the first Submit; the zero policy (the
// default) keeps every frame a keyframe and the schedule unchanged.
func (b *LoopbackBackend) SetKeyframePolicy(p segmodel.KeyframePolicy) {
	b.keyframe = segmodel.NewKeyframeStream(p)
}

// Name implements EdgeBackend.
func (b *LoopbackBackend) Name() string { return "loopback" }

// Bind implements EdgeBackend.
func (b *LoopbackBackend) Bind(frames []*scene.Frame, queueDepth int) {
	b.frames = frames
	if queueDepth > 0 {
		b.queueDepth = queueDepth
	}
}

// Submit implements EdgeBackend: the model runs immediately; delivery is due
// when the single accelerator finishes the request.
func (b *LoopbackBackend) Submit(req *OffloadRequest, sendAt float64) []ScheduledResult {
	// Classify before the admission check, mirroring the live scheduler's
	// decide-at-admission order; a rejected keyframe invalidates the cache.
	// The model input is built once: before the decision when the policy
	// needs it, otherwise only for an admitted offload.
	enabled := b.keyframe.Enabled()
	var in segmodel.Input
	if enabled {
		in = modelInput(b.frames, b.seed, req)
	}
	d := b.keyframe.Decide(in, req.Guidance)
	if b.inflight >= b.queueDepth {
		b.stats.CountDropped(1)
		b.keyframe.Lost(d)
		return nil
	}
	b.stats.Submitted++
	b.stats.UplinkBytes += req.PayloadBytes
	if !enabled {
		in = modelInput(b.frames, b.seed, req)
	}
	res := b.model.RunWarped(in, req.Guidance, d)
	inferMs := res.TotalMs() * b.inferScale
	start := sendAt
	if b.edgeFreeAt > start {
		start = b.edgeFreeAt
	}
	b.edgeFreeAt = start + inferMs
	b.stats.InferMsSum += inferMs
	b.stats.Results++
	b.inflight++
	return []ScheduledResult{{
		At: b.edgeFreeAt,
		Res: EdgeResult{
			FrameIndex: req.FrameIndex,
			Detections: res.Detections,
			InferMs:    inferMs,
		},
	}}
}

// Advance implements EdgeBackend; loopback work completes at Submit time.
func (b *LoopbackBackend) Advance(float64) []ScheduledResult { return nil }

// Outstanding implements EdgeBackend. Results scheduled at Submit count as
// surfaced, so loopback never reports unfinished work to the engine; the
// inflight cap is released as deliveries are consumed via NoteDelivered.
func (b *LoopbackBackend) Outstanding() int { return 0 }

// NoteDelivered releases one in-flight slot; the engine calls it when a
// scheduled result reaches the strategy.
func (b *LoopbackBackend) NoteDelivered() {
	if b.inflight > 0 {
		b.inflight--
	}
}

// Wait implements EdgeBackend.
func (b *LoopbackBackend) Wait(time.Duration) bool { return false }

// Stats implements EdgeBackend.
func (b *LoopbackBackend) Stats() BackendStats { return b.stats }

// Close implements EdgeBackend.
func (b *LoopbackBackend) Close() error { return nil }

// resultDeliveryObserver lets a backend learn when a scheduled result was
// handed to the strategy (loopback uses it to release queue slots).
type resultDeliveryObserver interface {
	NoteDelivered()
}
