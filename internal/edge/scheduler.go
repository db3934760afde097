package edge

import (
	"sync"
	"time"

	"edgeis/internal/metrics"
	"edgeis/internal/segmodel"
)

// Accelerator is one inference execution unit. Each scheduler worker owns
// exactly one, so implementations need not be safe for concurrent use. The
// returned inferMs is the simulated inference latency reported to clients.
// Implementations that also satisfy BatchAccelerator serve multi-job
// launches in one amortized call (see policy.go).
type Accelerator interface {
	Run(in segmodel.Input, g segmodel.Guidance) (out *segmodel.Result, inferMs float64)
}

// Config assembles a scheduler.
type Config struct {
	// Workers is the accelerator pool size; <= 0 means 1. One worker
	// serializes inference exactly like the old transport GPU mutex — the
	// deterministic mode the equivalence tests rely on.
	Workers int
	// QueueDepth bounds the admission queue across all sessions; <= 0 means
	// DefaultQueueDepth. What happens at the bound is Admission's call.
	QueueDepth int
	// NewAccelerator builds worker i's accelerator. Required.
	NewAccelerator func(worker int) Accelerator
	// GuidanceContinuity lets sessions reuse their last CIIA plan for
	// guidance-less frames (see Session.Guide). Off by default: reuse
	// changes inference results, which single-client determinism tests pin.
	GuidanceContinuity bool
	// Admission decides the fate of requests arriving at a full queue; nil
	// means RejectWhenFull (the historical discipline).
	Admission AdmissionPolicy
	// Dequeue shapes accelerator launches; nil means SingleDequeue (the
	// historical one-job-per-worker discipline).
	Dequeue DequeuePolicy
	// Keyframe enables temporal-redundancy skip-compute: sessions keep a
	// feature cache of their last keyframe and non-keyframe requests are
	// served at the partial warp cost by WarpAccelerator workers. The zero
	// policy (Interval 0) disables it — every request is a keyframe and
	// behaviour is byte-identical to a build without the cache.
	Keyframe segmodel.KeyframePolicy
}

// DefaultQueueDepth is the admission bound when Config leaves it zero.
const DefaultQueueDepth = 32

// job is one admitted request waiting for an accelerator.
type job struct {
	sess     *Session
	in       segmodel.Input
	g        segmodel.Guidance
	class    BatchClass
	decision segmodel.KeyframeDecision
	enqueued time.Time
	done     chan jobResult
}

type jobResult struct {
	out     *segmodel.Result
	inferMs float64
	err     error
}

// Scheduler owns the accelerator pool and the bounded admission queue.
// Dequeueing is fair per session: workers round-robin across sessions that
// have pending work and take one request at a time (or, under GatherBatch,
// one request per session per gather pass), so one client flooding the
// queue cannot starve the others.
type Scheduler struct {
	workers    int
	continuity bool
	maxBatch   int
	window     time.Duration
	dequeue    string
	keyframe   segmodel.KeyframePolicy

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds admitted requests in per-session lanes (FairQueue owns
	// the admission verdict and the round-robin ring).
	queue    *FairQueue[*job]
	inflight int
	closed   bool

	sessions map[*Session]struct{}
	nextID   int
	resumed  int

	served      int
	rejected    int
	shed        int
	cancelled   int
	keyframes   int
	warped      int
	inferSum    float64
	waits       metrics.Dist
	depths      metrics.Dist
	batches     int
	batchJobs   int
	batchCounts []int
	peakSess    int

	wg sync.WaitGroup
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	// Workers and QueueDepth echo the configuration, AdmissionPolicy and
	// DequeuePolicy the active policy names.
	Workers         int
	QueueDepth      int
	AdmissionPolicy string
	DequeuePolicy   string
	// Queued and InFlight describe the instantaneous load.
	Queued   int
	InFlight int
	// Served, Rejected, Shed and Cancelled partition every admitted-or-
	// refused request: answered, refused at admission, displaced by the
	// session's own fresher frame (latest-wins), failed by session/
	// scheduler shutdown. Nothing is lost silently:
	// offered == Served + Rejected + Shed + Cancelled once drained.
	Served    int
	Rejected  int
	Shed      int
	Cancelled int
	// MeanInferMs averages simulated inference latency over served requests.
	MeanInferMs float64
	// Wait telemetry: admission-to-dequeue wall time over served requests.
	MeanWaitMs float64
	MaxWaitMs  float64
	P95WaitMs  float64
	// Queue-depth telemetry, sampled at each admission.
	MeanQueueDepth float64
	PeakQueueDepth int
	// Batch telemetry: Batches counts accelerator launches, MeanBatchSize
	// the jobs per launch, and BatchSizeCounts[i] the launches of size i+1.
	// Under SingleDequeue every launch has size 1.
	Batches         int
	MeanBatchSize   float64
	MaxBatchSize    int
	BatchSizeCounts []int
	// Skip-compute telemetry: with a keyframe policy enabled,
	// KeyframesServed (feature-cache misses: full backbone) and
	// WarpedServed (cache hits: partial warp cost) partition Served —
	// KeyframesServed + WarpedServed == Served once drained. Both stay
	// zero with the policy off.
	KeyframesServed int
	WarpedServed    int
	// Session population. ResumedSessions counts sessions adopted from
	// another replica through the resume handshake (0 outside a fleet).
	ActiveSessions  int
	PeakSessions    int
	ResumedSessions int
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Admission == nil {
		cfg.Admission = RejectWhenFull{}
	}
	if cfg.Dequeue == nil {
		cfg.Dequeue = SingleDequeue{}
	}
	s := &Scheduler{
		workers:    cfg.Workers,
		continuity: cfg.GuidanceContinuity,
		queue:      NewFairQueue[*job](cfg.QueueDepth, cfg.Admission),
		maxBatch:   cfg.Dequeue.MaxBatch(),
		window:     cfg.Dequeue.Window(),
		dequeue:    cfg.Dequeue.Name(),
		keyframe:   cfg.Keyframe,
		sessions:   make(map[*Session]struct{}),
	}
	s.batchCounts = make([]int, s.maxBatch)
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(cfg.NewAccelerator(i))
	}
	return s
}

// NewSession registers a client. Sessions created after Close still work as
// handles, but every Infer through them fails with ErrClosed.
func (s *Scheduler) NewSession(remote string) *Session {
	return s.addSession(remote, "")
}

// ResumeSession adopts a session migrating in from another replica: the
// session carries its stable cross-replica key (so fleet-wide accounting
// keeps one identity across replicas) but starts with an empty feature
// cache and no retained guidance plan — that state died with the replica
// that owned it. The first keyframe decision on an adopted session
// therefore comes from a cold cache and is forced to be a keyframe: the
// same lost-keyframe invalidation rule that guards against warping from a
// pyramid that was never computed also covers a pyramid that is simply on
// the wrong machine.
func (s *Scheduler) ResumeSession(key, remote string) *Session {
	return s.addSession(remote, key)
}

// addSession registers a fresh session, or an adopted one when key is
// non-empty.
func (s *Scheduler) addSession(remote, key string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if key != "" {
		s.resumed++
	}
	sess := &Session{
		sched:      s,
		id:         s.nextID,
		remote:     remote,
		key:        key,
		started:    time.Now(),
		continuity: s.continuity,
		kf:         segmodel.NewKeyframeStream(s.keyframe),
	}
	s.sessions[sess] = struct{}{}
	if len(s.sessions) > s.peakSess {
		s.peakSess = len(s.sessions)
	}
	return sess
}

// QueueSnapshot is the scheduler's instantaneous load signal, cheap enough
// for a placement layer to poll per decision.
type QueueSnapshot struct {
	// Queued counts admitted requests not yet taken by a worker; InFlight
	// those on an accelerator right now. Their sum is the backlog a new
	// request lands behind.
	Queued   int
	InFlight int
	// Depth is the admission bound, Sessions the live session count.
	Depth    int
	Sessions int
}

// Backlog is the work ahead of a newly admitted request.
func (q QueueSnapshot) Backlog() int { return q.Queued + q.InFlight }

// QueueSnapshot samples the load signal the load-aware placement policy
// feeds on. It takes the scheduler lock briefly; no allocation.
func (s *Scheduler) QueueSnapshot() QueueSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueueSnapshot{
		Queued:   s.queue.Queued(),
		InFlight: s.inflight,
		Depth:    s.queue.depth,
		Sessions: len(s.sessions),
	}
}

// The outcome counters below move only through these mutators, so every
// write the conservation law depends on (each admitted request ends up
// served, rejected, shed or cancelled — never silently lost) is auditable
// by the conservation analyzer. All mutators expect s.mu held.

func (s *Scheduler) countServed(n int) { s.served += n }
func (s *Scheduler) countRejected()    { s.rejected++ }
func (s *Scheduler) countShed()        { s.shed++ }
func (s *Scheduler) countCancelled()   { s.cancelled++ }

// countKeyframes and countWarped split countServed by keyframe class when a
// keyframe policy is enabled: keyframes are feature-cache misses (full
// backbone), warped frames cache hits (partial warp cost). Together they
// must always equal served. Both expect s.mu held.
func (s *Scheduler) countKeyframes(n int) { s.keyframes += n }
func (s *Scheduler) countWarped(n int)    { s.warped += n }

// infer admits one request and blocks until it is served, rejected, shed or
// cancelled. No scheduler lock is held while waiting.
//
// The keyframe decision is made here, at admission time, because it is the
// session's only cross-frame state transition and admissions are the
// arrival order of the session's frames. It happens before the scheduler
// lock is taken (the decision reads the session's stream under sess.mu,
// which is never held together with s.mu); if the decided request then
// fails to reach an accelerator, the stream learns it was lost once the
// lock is dropped, so no later frame warps from a pyramid that was never
// computed.
func (s *Scheduler) infer(sess *Session, in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64, error) {
	d := sess.decide(in, g)
	j := &job{sess: sess, in: in, g: g, class: ClassOf(in, g, d.Keyframe), decision: d,
		enqueued: time.Now(), done: make(chan jobResult, 1)}
	s.mu.Lock()
	if s.closed || sess.closed {
		s.mu.Unlock()
		sess.lost(d)
		return nil, 0, ErrClosed
	}
	v, stale := s.queue.Admit(&sess.lane, j)
	switch v {
	case VerdictReject:
		s.countRejected()
		s.mu.Unlock()
		sess.noteRejected()
		sess.lost(d)
		return nil, 0, ErrQueueFull
	case VerdictShedOldest:
		// The session's own oldest queued frame was displaced: its waiter
		// learns it was shed, the fresh frame took the slot.
		s.countShed()
		//edgeis:lockheld done is buffered (cap 1) and this is its only send, so it cannot block
		stale.done <- jobResult{err: ErrShed}
	}
	s.depths.Add(float64(s.queue.Queued()))
	s.cond.Signal()
	s.mu.Unlock()
	if v == VerdictShedOldest {
		sess.noteShed()
		sess.lost(stale.decision)
	}

	r := <-j.done
	return r.out, r.inferMs, r.err
}

// nextBatch blocks until at least one request is available (fair
// round-robin across sessions) or the scheduler is closed and drained; nil
// means exit. Under GatherBatch it extends the head job with compatible
// queued work, holding an underfull batch open for the gather window.
// Taken jobs count as in flight from the moment they leave the queue.
func (s *Scheduler) nextBatch() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queue.Queued() > 0 {
			head := s.queue.Take()
			same := func(j *job) bool { return j.class == head.class }
			batch := s.queue.Gather([]*job{head}, s.maxBatch, same)
			s.inflight += len(batch)
			if len(batch) < s.maxBatch && s.window > 0 && !s.closed {
				// Gather window: hold the underfull batch open so jobs
				// arriving within the window can ride the same launch. The
				// jobs already taken are in flight, so Close (which drains
				// in-flight work) and session teardown stay correct while
				// the lock is released.
				//edgeis:lockdance the deferred unlock covers every other exit; this window release re-locks on the only path that reaches it
				s.mu.Unlock()
				time.Sleep(s.window)
				s.mu.Lock()
				taken := len(batch)
				batch = s.queue.Gather(batch, s.maxBatch, same)
				s.inflight += len(batch) - taken
			}
			return batch
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// worker serves requests on one accelerator until close-and-drain.
func (s *Scheduler) worker(acc Accelerator) {
	defer s.wg.Done()
	bacc, canBatch := acc.(BatchAccelerator)
	wacc, canWarp := acc.(WarpAccelerator)
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		waitMs := make([]float64, len(batch))
		for i, j := range batch {
			waitMs[i] = float64(time.Since(j.enqueued)) / float64(time.Millisecond)
		}

		// The batch former never mixes keyframe classes (BatchClass
		// includes Keyframe), so one probe of the head job decides the
		// launch shape for the whole batch.
		warp := canWarp && !batch[0].decision.Keyframe

		outs := make([]*segmodel.Result, len(batch))
		perMs := make([]float64, len(batch))
		if canBatch && len(batch) > 1 {
			ins := make([]segmodel.Input, len(batch))
			gs := make([]segmodel.Guidance, len(batch))
			for i, j := range batch {
				ins[i], gs[i] = j.in, j.g
			}
			var bouts []*segmodel.Result
			var launchMs float64
			if warp {
				ds := make([]segmodel.KeyframeDecision, len(batch))
				for i, j := range batch {
					ds[i] = j.decision
				}
				bouts, launchMs = wacc.RunWarpedBatch(ins, gs, ds)
			} else {
				bouts, launchMs = bacc.RunBatch(ins, gs)
			}
			copy(outs, bouts)
			// Every job in the launch completes together.
			for i := range perMs {
				perMs[i] = launchMs
			}
		} else {
			// One job, or an accelerator that cannot batch: serve serially.
			// Correct but unamortized — batching pays off only with a
			// BatchAccelerator.
			for i, j := range batch {
				if warp {
					outs[i], perMs[i] = wacc.RunWarped(j.in, j.g, j.decision)
				} else {
					outs[i], perMs[i] = acc.Run(j.in, j.g)
				}
			}
		}

		s.mu.Lock()
		s.inflight -= len(batch)
		s.countServed(len(batch))
		if s.keyframe.Enabled() {
			// Partition served by keyframe class; the class is uniform
			// across the batch.
			if batch[0].decision.Keyframe {
				s.countKeyframes(len(batch))
			} else {
				s.countWarped(len(batch))
			}
		}
		// Batch telemetry only exists under the batch former; with single
		// dequeue the stats surface stays exactly as it was before the
		// policy layer (no batch line in FormatServerStats).
		if s.maxBatch > 1 {
			s.batches++
			s.batchJobs += len(batch)
			s.batchCounts[len(batch)-1]++
		}
		for i := range batch {
			s.inferSum += perMs[i]
			s.waits.Add(waitMs[i])
		}
		s.mu.Unlock()
		for i, j := range batch {
			j.sess.noteServed(perMs[i], waitMs[i])
			j.done <- jobResult{out: outs[i], inferMs: perMs[i]}
		}
	}
}

// closeSession implements Session.Close.
func (s *Scheduler) closeSession(sess *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return
	}
	sess.closed = true
	delete(s.sessions, sess)
	// Fail queued-but-unstarted requests so their waiters unblock; any
	// already taken onto a worker (alone or in a gathering batch) complete
	// normally.
	for _, j := range s.queue.Drain(&sess.lane) {
		s.countCancelled()
		//edgeis:lockheld done is buffered (cap 1) and this is its only send, so it cannot block
		j.done <- jobResult{err: ErrClosed}
	}
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:         s.workers,
		QueueDepth:      s.queue.depth,
		AdmissionPolicy: s.queue.policy.Name(),
		DequeuePolicy:   s.dequeue,
		Queued:          s.queue.Queued(),
		InFlight:        s.inflight,
		Served:          s.served,
		Rejected:        s.rejected,
		Shed:            s.shed,
		Cancelled:       s.cancelled,
		MeanWaitMs:      s.waits.Mean(),
		MaxWaitMs:       s.waits.Max(),
		P95WaitMs:       s.waits.Percentile(0.95),
		MeanQueueDepth:  s.depths.Mean(),
		PeakQueueDepth:  int(s.depths.Max()),
		Batches:         s.batches,
		BatchSizeCounts: append([]int(nil), s.batchCounts...),
		KeyframesServed: s.keyframes,
		WarpedServed:    s.warped,
		ActiveSessions:  len(s.sessions),
		PeakSessions:    s.peakSess,
		ResumedSessions: s.resumed,
	}
	if s.served > 0 {
		st.MeanInferMs = s.inferSum / float64(s.served)
	}
	if s.batches > 0 {
		st.MeanBatchSize = float64(s.batchJobs) / float64(s.batches)
	}
	for size := len(s.batchCounts); size > 0; size-- {
		if s.batchCounts[size-1] > 0 {
			st.MaxBatchSize = size
			break
		}
	}
	return st
}

// Sessions snapshots every active session, ordered by session ID.
func (s *Scheduler) Sessions() []SessionStats {
	s.mu.Lock()
	live := make([]*Session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	// Map order is arbitrary; sort by the monotonically assigned ID.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].id > live[j].id; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	out := make([]SessionStats, len(live))
	for i, sess := range live {
		out[i] = sess.Stats()
	}
	return out
}

// Close stops admission and gracefully drains: requests already admitted
// are served to completion (their waiters get real results), new Infer
// calls fail with ErrClosed, and Close returns once every worker has
// exited. Workers never block on client connections, so Close cannot
// deadlock; it is safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
