package loadgen

import (
	"container/heap"
	"math"
	"math/rand"

	"edgeis/internal/edge"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/segmodel"
)

// The in-process simulator: a virtual-time event queue over the whole
// fleet. It models the mobile side (per-session outstanding cap, uplink
// pacing), the edge admission discipline of edge.Scheduler (bounded queue,
// explicit reject or latest-wins shedding, fair per-session round-robin
// dequeue onto the earliest-free accelerator, optional cross-session
// batching under the gather-window former) and the downlink delivery of
// results. The queue rules are edge.FairQueue's and the keyframe rules
// segmodel.KeyframeStream's, the same code edge.Scheduler runs. Nothing
// reads the wall clock, so a run is a pure function of (Profile, Seed).

// evKind tags simulator events.
type evKind uint8

const (
	// evGen: a session generates one offload frame.
	evGen evKind = iota
	// evArrive: an uplinked frame reaches edge admission.
	evArrive
	// evInferDone: an accelerator finishes one launch (one frame, or a
	// gathered batch completing together).
	evInferDone
	// evDeliver: a result reaches the mobile (latency sample point).
	evDeliver
	// evFlush: an underfull batch's gather window expires; the reserved
	// accelerator tops the batch up and launches whatever it has.
	evFlush
	// evKill: a replica dies (Profile.Kills). Its queued/staged/in-flight
	// frames migrate-lose, its sessions re-place among survivors.
	evKill
)

// event is one scheduled simulator step. seq breaks time ties in push
// order, so identical runs process events identically. replica/gen address
// the edge shard the event targets: a kill bumps the shard's generation,
// so events scheduled against the pre-kill replica (an uplink in flight, a
// running inference, a staged gather window) pop stale and resolve their
// frames into the Migrated bucket instead of touching the dead edge.
type event struct {
	at      float64
	seq     int64
	kind    evKind
	sess    int
	replica int
	gen     int
	accel   int
	job     *simJob
	batch   []*simJob
}

// simJob is one offloaded frame in flight.
type simJob struct {
	sess     int
	genAt    float64
	arriveAt float64
	// kf is the skip-compute decision made at edge admission (a constant
	// keyframe when the profile disables the feature cache); it picks the
	// inference cost and the batch-compatibility class.
	kf segmodel.KeyframeDecision
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simSession is one synthetic mobile.
type simSession struct {
	clip ClipClass
	// arrivals is the session's precomputed generation schedule
	// (Profile.SessionArrivals) and nextGen indexes the next entry; the live
	// drivers replay the same schedule, so offered counts match across
	// targets.
	arrivals    []float64
	nextGen     int
	up, down    *netsim.Link
	outstanding int
	lane        edge.Lane[*simJob]
	served      int
	// replica is the edge shard serving the session: rendezvous-placed at
	// start, re-placed among survivors when its replica dies (-1 once the
	// whole fleet is dead — further frames drop client-side, the mobile
	// has nowhere to connect).
	replica int
	// kf is the session's edge-side keyframe stream. Loadgen frames carry
	// no geometry, so it decides by the keyframe interval alone; it is
	// reset when the session migrates, because the cached pyramid died with
	// the old replica and the first frame on the new one must be a keyframe.
	kf segmodel.KeyframeStream
}

// simEdge is one edge replica's state: the admission queue edge.Scheduler
// runs, and a per-accelerator busy horizon. staged holds an underfull batch
// per reserved accelerator during its gather window. gen is the failover
// generation: a kill bumps it so events addressed to the old incarnation
// resolve stale.
type simEdge struct {
	queue     *edge.FairQueue[*simJob]
	accelIdle []bool
	busyMs    []float64
	staged    [][]*simJob
	dead      bool
	gen       int
}

// sim is the run state.
type sim struct {
	p     Profile
	heap  eventHeap
	seq   int64
	sess  []*simSession
	maxAt float64

	// edges are the replica shards (exactly one outside fleet mode; the
	// single-replica event order and RNG draw order are byte-identical to
	// the pre-fleet simulator). edgeRng is shared across replicas: virtual
	// time serializes every draw deterministically, so per-replica streams
	// would buy nothing.
	edges   []*simEdge
	edgeRng *rand.Rand

	offered, served, rejected, shed, dropped int
	// migrated counts frames lost in flight to replica failure: queued,
	// staged or on an accelerator when their replica died, or uplinked
	// into a dead socket. The fleet conservation law is
	// offered == served + rejected + shed + dropped + migrated.
	migrated           int
	batches, batchJobs int
	// keyframes/warped partition served when the profile enables
	// skip-compute (both stay zero otherwise).
	keyframes, warped  int
	lat, waits, depths metrics.Dist
}

// alive returns the indices of the replicas still serving.
func (s *sim) alive() []int {
	out := make([]int, 0, len(s.edges))
	for r, ed := range s.edges {
		if !ed.dead {
			out = append(out, r)
		}
	}
	return out
}

// Run executes the profile on the virtual-time simulator and returns its
// SLO report. Two calls with the same profile return identical reports. It
// panics if the profile names an unknown ShedPolicy.
func Run(p Profile) *SLO {
	p = p.withDefaults()
	admission, err := edge.AdmissionPolicyByName(p.ShedPolicy)
	if err != nil {
		panic("loadgen: " + err.Error())
	}
	replicas := p.Replicas
	if replicas < 1 {
		replicas = 1
	}
	s := &sim{
		p:       p,
		sess:    make([]*simSession, p.Sessions),
		edges:   make([]*simEdge, replicas),
		edgeRng: rand.New(rand.NewSource(p.Seed*7_369_131 + 17)),
	}
	for r := range s.edges {
		ed := &simEdge{
			queue:     edge.NewFairQueue[*simJob](p.QueueDepth, admission),
			accelIdle: make([]bool, p.Accelerators),
			busyMs:    make([]float64, p.Accelerators),
			staged:    make([][]*simJob, p.Accelerators),
		}
		for i := range ed.accelIdle {
			ed.accelIdle[i] = true
		}
		s.edges[r] = ed
	}
	allAlive := s.alive()
	for i := 0; i < p.Sessions; i++ {
		s.sess[i] = &simSession{
			clip:     p.ClipFor(i),
			arrivals: p.SessionArrivals(i),
			up:       netsim.NewLink(p.LinkFor(i).NetProfile(), p.Seed+int64(i)*2+1),
			down:     netsim.NewLink(p.LinkFor(i).NetProfile(), p.Seed+int64(i)*2+2),
			kf:       segmodel.NewKeyframeStream(segmodel.KeyframePolicy{Interval: p.KeyframeInterval}),
		}
		if p.Sharded() {
			s.sess[i].replica = p.PlaceSession(i, allAlive)
		}
		s.push(event{at: s.sess[i].arrivals[0], kind: evGen, sess: i})
	}
	if p.Sharded() {
		for _, k := range p.Kills {
			if k.Replica >= 0 && k.Replica < replicas {
				s.push(event{at: k.AtMs, kind: evKill, replica: k.Replica})
			}
		}
	}

	for len(s.heap) > 0 {
		e := heap.Pop(&s.heap).(event)
		if e.at > s.maxAt {
			s.maxAt = e.at
		}
		switch e.kind {
		case evGen:
			s.generate(e)
		case evArrive:
			s.arrive(e)
		case evInferDone:
			s.inferDone(e)
		case evDeliver:
			s.deliver(e)
		case evFlush:
			s.flush(e)
		case evKill:
			s.kill(e)
		}
	}
	return s.report()
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.heap, e)
}

// Counter mutators: the audited set the conservation analyzer admits for
// the simulator's SLO counters. The sim is single-goroutine, so these add
// no locking — only the guarantee that every movement between outcome
// classes (offered == served + rejected + shed + dropped) is one greppable
// call site.

func (s *sim) countOffered()  { s.offered++ }
func (s *sim) countDropped()  { s.dropped++ }
func (s *sim) countRejected() { s.rejected++ }
func (s *sim) countShed()     { s.shed++ }

// countMigrated moves n frames into the migrated class: accepted by the
// client, lost with a replica. Every call site is one of the four ways a
// replica death loses frames (queued, staged, on-accelerator, in uplink
// flight).
func (s *sim) countMigrated(n int) { s.migrated += n }

// countServed moves one frame into the served class on both the fleet and
// per-session tallies, keeping the fairness report consistent with the SLO.
func (s *sim) countServed(ss *simSession) {
	ss.served++
	s.served++
}

// countKeyframes and countWarped partition served frames by skip-compute
// cost shape; only called when the profile enables the feature cache, so
// KeyframesServed + WarpedServed == Served exactly when enabled.

func (s *sim) countKeyframes(n int) { s.keyframes += n }

func (s *sim) countWarped(n int) { s.warped += n }

// jobCost is the nominal accelerator cost of one job's cost shape.
func (s *sim) jobCost(j *simJob) float64 {
	clip := s.sess[j.sess].clip
	if j.kf.Keyframe {
		return clip.InferMs
	}
	return clip.WarpMs
}

// generate handles one frame generation: client-side shed when the session
// is at its outstanding cap (or the whole fleet is dead), otherwise uplink
// pacing toward the session's placed replica.
func (s *sim) generate(e event) {
	ss := s.sess[e.sess]
	s.countOffered()
	ss.nextGen++
	if ss.nextGen < len(ss.arrivals) {
		s.push(event{at: ss.arrivals[ss.nextGen], kind: evGen, sess: e.sess})
	}
	if ss.outstanding >= s.p.MaxOutstanding || ss.replica < 0 {
		s.countDropped()
		return
	}
	ss.outstanding++
	upMs := ss.up.TransferMs(e.at, ss.clip.PayloadBytes)
	s.push(event{at: e.at + upMs, kind: evArrive, sess: e.sess,
		replica: ss.replica, gen: s.edges[ss.replica].gen,
		job: &simJob{sess: e.sess, genAt: e.at, arriveAt: e.at + upMs}})
}

// arrive handles edge admission through the replica's queue: a full queue
// rejects explicitly under the default policy; under latest-wins it sheds
// the session's own oldest queued frame to admit the fresh one. A shed or
// rejected frame's result will never come back, so its outstanding slot
// frees at once.
func (s *sim) arrive(e event) {
	ss := s.sess[e.sess]
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		// The uplink delivered into a dead socket: the frame was accepted
		// by the client before the kill, so it is migration loss, not a
		// client-side drop. The session itself has already re-placed.
		s.countMigrated(1)
		ss.outstanding--
		return
	}
	// Keyframe classification happens at admission in arrival order, as
	// in edge.Scheduler: even a frame the queue then rejects has advanced
	// the session's cache state. Loadgen frames carry no geometry.
	e.job.kf = ss.kf.Decide(segmodel.Input{}, nil)
	v, stale := ed.queue.Admit(&ss.lane, e.job)
	switch v {
	case edge.VerdictReject:
		s.countRejected()
		ss.outstanding--
		ss.kf.Lost(e.job.kf)
		return
	case edge.VerdictShedOldest:
		s.countShed()
		ss.outstanding--
		ss.kf.Lost(stale.kf)
	}
	s.depths.Add(float64(ed.queue.Queued()))
	s.dispatch(e.at, e.replica)
}

// dispatch feeds idle accelerators from the replica's queue: each free
// accelerator takes a batch (one frame under single dequeue) and launches
// it, or reserves itself for an underfull batch's gather window.
func (s *sim) dispatch(now float64, r int) {
	ed := s.edges[r]
	for ed.queue.Queued() > 0 {
		accel := -1
		for i, idle := range ed.accelIdle {
			if idle {
				accel = i
				break
			}
		}
		if accel < 0 {
			return
		}
		batch := s.gather(ed, nil)
		if len(batch) < s.p.MaxBatch && s.p.BatchWindowMs > 0 {
			// Underfull: reserve the accelerator for one gather window;
			// frames arriving meanwhile top the batch up at flush time.
			ed.accelIdle[accel] = false
			ed.staged[accel] = batch
			s.push(event{at: now + s.p.BatchWindowMs, kind: evFlush,
				replica: r, gen: ed.gen, accel: accel})
			continue
		}
		s.launch(now, r, accel, batch)
	}
}

// gather forms one batch: the queue's next job anchors it, then compatible
// jobs join up to MaxBatch. A non-nil seed batch is topped up instead —
// the flush path after a gather window. Compatibility is the clip class and
// the keyframe class (a full-backbone launch and a cache warp are different
// cost shapes; with skip-compute off every job is a keyframe, so the test
// reduces to the clip class).
func (s *sim) gather(ed *simEdge, batch []*simJob) []*simJob {
	if len(batch) == 0 {
		batch = append(batch, ed.queue.Take())
	}
	head := batch[0]
	class := s.sess[head.sess].clip.Name
	return ed.queue.Gather(batch, s.p.MaxBatch, func(j *simJob) bool {
		return s.sess[j.sess].clip.Name == class && j.kf.Keyframe == head.kf.Keyframe
	})
}

// launch starts one accelerator pass over a batch: per-job inference costs
// draw in batch order, the launch holds the accelerator for the amortized
// batch cost (segmodel.BatchMs), and every job in the batch completes
// together when the launch does.
func (s *sim) launch(now float64, r, accel int, batch []*simJob) {
	ed := s.edges[r]
	solos := make([]float64, len(batch))
	for i, j := range batch {
		s.waits.Add(now - j.arriveAt)
		solos[i] = s.jobCost(j) * (1 + 0.08*math.Abs(s.edgeRng.NormFloat64()))
	}
	batchMs := segmodel.BatchMs(solos)
	ed.accelIdle[accel] = false
	ed.busyMs[accel] += batchMs
	// Batch telemetry only exists under the batch former, as in
	// edge.Scheduler.
	if s.p.MaxBatch > 1 {
		s.batches++
		s.batchJobs += len(batch)
	}
	s.push(event{at: now + batchMs, kind: evInferDone,
		replica: r, gen: ed.gen, accel: accel, batch: batch})
}

// flush fires when a staged batch's gather window expires: top it up with
// whatever compatible work arrived during the window, then launch. A stale
// flush (the replica died during the window) resolves its staged frames
// into the migrated bucket instead.
func (s *sim) flush(e event) {
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		staged := ed.staged[e.accel]
		ed.staged[e.accel] = nil
		s.countMigrated(len(staged))
		for _, j := range staged {
			s.sess[j.sess].outstanding--
		}
		return
	}
	batch := ed.staged[e.accel]
	ed.staged[e.accel] = nil
	s.launch(e.at, e.replica, e.accel, s.gather(ed, batch))
}

// inferDone frees the accelerator, paces each completed result over its
// session's downlink in batch order and pulls the next work. A stale
// completion (the replica died mid-inference) never produces results: the
// batch migrates.
func (s *sim) inferDone(e event) {
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		s.countMigrated(len(e.batch))
		for _, j := range e.batch {
			s.sess[j.sess].outstanding--
		}
		return
	}
	ed.accelIdle[e.accel] = true
	for _, j := range e.batch {
		ss := s.sess[j.sess]
		downMs := ss.down.TransferMs(e.at, ss.clip.ResultBytes)
		s.push(event{at: e.at + downMs, kind: evDeliver, sess: j.sess, job: j})
	}
	s.dispatch(e.at, e.replica)
}

// kill handles a scheduled replica death: queued frames migrate-lose, the
// replica's sessions re-place among the survivors with invalidated feature
// caches (the cached pyramid died with the replica, so their next frame is
// a forced keyframe — the lost-keyframe invalidation rule applied to
// migration). Frames staged or on an accelerator migrate when their now-
// stale completion events pop; frames in uplink flight migrate on arrival.
func (s *sim) kill(e event) {
	ed := s.edges[e.replica]
	if ed.dead {
		return
	}
	ed.dead = true
	ed.gen++
	alive := s.alive()
	for i, ss := range s.sess {
		if ss.replica != e.replica {
			continue
		}
		lost := len(ed.queue.Drain(&ss.lane))
		s.countMigrated(lost)
		ss.outstanding -= lost
		ss.kf.Reset()
		if len(alive) == 0 {
			ss.replica = -1
			continue
		}
		ss.replica = s.p.PlaceSession(i, alive)
	}
}

// deliver records the served frame's end-to-end latency and its
// skip-compute cost shape.
func (s *sim) deliver(e event) {
	ss := s.sess[e.sess]
	ss.outstanding--
	s.countServed(ss)
	if s.p.SkipCompute() {
		if e.job.kf.Keyframe {
			s.countKeyframes(1)
		} else {
			s.countWarped(1)
		}
	}
	s.lat.Add(e.at - e.job.genAt)
}

// report assembles the SLO snapshot.
func (s *sim) report() *SLO {
	servedMin, servedMax := 0, 0
	for i, ss := range s.sess {
		if i == 0 || ss.served < servedMin {
			servedMin = ss.served
		}
		if i == 0 || ss.served > servedMax {
			servedMax = ss.served
		}
	}
	util, accels := 0.0, 0
	if s.maxAt > 0 {
		for _, ed := range s.edges {
			for _, b := range ed.busyMs {
				util += b / s.maxAt
				accels++
			}
		}
		util /= float64(accels)
	}
	meanBatch := 0.0
	if s.batches > 0 {
		meanBatch = float64(s.batchJobs) / float64(s.batches)
	}
	slo := &SLO{
		Profile:         s.p.Name,
		Target:          "sim",
		Seed:            s.p.Seed,
		Sessions:        s.p.Sessions,
		Accelerators:    s.p.Accelerators,
		QueueDepth:      s.p.QueueDepth,
		Offered:         s.offered,
		Served:          s.served,
		Rejected:        s.rejected,
		Shed:            s.shed,
		Dropped:         s.dropped,
		Migrated:        s.migrated,
		ConservationOK:  s.offered == s.served+s.rejected+s.shed+s.dropped+s.migrated,
		Batches:         s.batches,
		MeanBatchSize:   round3(meanBatch),
		KeyframesServed: s.keyframes,
		WarpedServed:    s.warped,
		KeyframeRate:    keyframeRate(s.keyframes, s.warped),
		LatMeanMs:       round3(s.lat.Mean()),
		LatP50Ms:        round3(s.lat.Quantile(0.50)),
		LatP95Ms:        round3(s.lat.Quantile(0.95)),
		LatP99Ms:        round3(s.lat.Quantile(0.99)),
		LatMaxMs:        round3(s.lat.Max()),
		WaitMeanMs:      round3(s.waits.Mean()),
		WaitP95Ms:       round3(s.waits.Quantile(0.95)),
		WaitMaxMs:       round3(s.waits.Max()),
		QueueMeanDepth:  round3(s.depths.Mean()),
		QueuePeakDepth:  int(s.depths.Max()),
		UtilizationMean: round3(util),
		ServedMin:       servedMin,
		ServedMax:       servedMax,
		FairnessSpread:  servedMax - servedMin,
		HorizonMs:       round3(s.maxAt),
	}
	// The replica count is reported only for sharded profiles: an explicit
	// Replicas=1 run is the single-edge simulator, byte-identical to the
	// pre-fleet reports (which carry no replicas field at all).
	if s.p.Sharded() {
		slo.Replicas = s.p.Replicas
	}
	return slo
}
