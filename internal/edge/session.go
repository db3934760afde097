package edge

import (
	"fmt"
	"sync"
	"time"

	"edgeis/internal/segmodel"
)

// Session is the server-side state of one connected client. The transport
// layer creates one per accepted connection and threads every request
// through it; the scheduler uses it as the fairness unit for dequeueing.
type Session struct {
	sched   *Scheduler
	id      int
	remote  string
	started time.Time
	// key is the session's stable cross-replica identity, set when the
	// session was adopted through a resume handshake (empty for plain
	// connections). A fleet client keeps the same key as it migrates
	// between replicas, so per-session accounting lines up fleet-wide even
	// though each replica assigns its own local ID.
	key string

	// lane and closed are guarded by the scheduler's mutex: they are part
	// of the admission queue, not of the session's private counters.
	lane   Lane[*job]
	closed bool

	// continuity enables CIIA guidance reuse for guidance-less frames.
	continuity bool

	// mu guards the counters and the guidance context below. It is never
	// held together with the scheduler's mutex.
	mu       sync.Mutex
	served   int
	rejected int
	shed     int
	inferSum float64
	waitSum  float64
	guided   int
	reused   int
	// plan is the last non-nil CIIA guidance the client sent — the
	// per-client context that stays alive across requests.
	plan segmodel.Guidance
	// kf is the session's skip-compute stream: the scheduler's keyframe
	// policy over the session's feature cache, which is evicted when the
	// session closes.
	kf segmodel.KeyframeStream
}

// SessionStats is a point-in-time snapshot of one session.
type SessionStats struct {
	// ID is the server-unique session number; Remote the peer address.
	ID     int
	Remote string
	// Key is the cross-replica session identity ("" unless resumed).
	Key string
	// UptimeMs is wall-clock time since the session was created.
	UptimeMs float64
	// Served, Rejected and Shed count this session's answered requests,
	// admission rejections, and stale frames displaced by its own fresher
	// frames under latest-wins.
	Served   int
	Rejected int
	Shed     int
	// Pending counts requests admitted but not yet dequeued by a worker.
	Pending int
	// MeanInferMs and MeanWaitMs average the session's inference latency
	// and admission-queue wait.
	MeanInferMs float64
	MeanWaitMs  float64
	// GuidedFrames counts requests that carried CIIA guidance; ReusedPlans
	// counts guidance-less requests served under the retained plan.
	GuidedFrames int
	ReusedPlans  int
}

// ID returns the server-unique session number.
func (sess *Session) ID() int { return sess.id }

// Remote returns the peer address the session was created with.
func (sess *Session) Remote() string { return sess.remote }

// Key returns the session's cross-replica identity, or "" for a session
// that was never resumed.
func (sess *Session) Key() string { return sess.key }

// Guide resolves the guidance for one request and maintains the session's
// CIIA context: a non-nil g refreshes the retained plan; a nil g reuses the
// retained plan when continuity is enabled, so a client that establishes
// instructed areas keeps benefiting on frames where the mobile pipeline had
// nothing new to send.
func (sess *Session) Guide(g segmodel.Guidance) segmodel.Guidance {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if g != nil {
		sess.plan = g
		sess.guided++
		return g
	}
	if sess.continuity && sess.plan != nil {
		sess.reused++
		return sess.plan
	}
	return nil
}

// Infer submits one request for this session and blocks until an
// accelerator has served it (or it was rejected/cancelled). It returns the
// model output and the simulated inference latency in milliseconds.
func (sess *Session) Infer(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64, error) {
	return sess.sched.infer(sess, in, g)
}

// Stats snapshots the session.
func (sess *Session) Stats() SessionStats {
	sess.sched.mu.Lock()
	pending := sess.lane.Len()
	sess.sched.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := SessionStats{
		ID:           sess.id,
		Remote:       sess.remote,
		Key:          sess.key,
		UptimeMs:     float64(time.Since(sess.started)) / float64(time.Millisecond),
		Served:       sess.served,
		Rejected:     sess.rejected,
		Shed:         sess.shed,
		Pending:      pending,
		GuidedFrames: sess.guided,
		ReusedPlans:  sess.reused,
	}
	if sess.served > 0 {
		st.MeanInferMs = sess.inferSum / float64(sess.served)
		st.MeanWaitMs = sess.waitSum / float64(sess.served)
	}
	return st
}

// Close detaches the session from the scheduler: queued-but-unstarted
// requests fail with ErrClosed (unblocking their waiters), later Infer
// calls are rejected, and the session stops appearing in Sessions. The
// session's feature cache is evicted with it. Safe to call more than once.
func (sess *Session) Close() {
	sess.sched.closeSession(sess)
	sess.mu.Lock()
	sess.kf.Reset()
	sess.mu.Unlock()
}

// decide classifies one request on the session's keyframe stream. The
// scheduler calls it exactly once per request, in admission order. Must
// not be called with the scheduler's mutex held (it takes sess.mu).
func (sess *Session) decide(in segmodel.Input, g segmodel.Guidance) segmodel.KeyframeDecision {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.kf.Decide(in, g)
}

// lost tells the stream that a decided request never reached an
// accelerator. Must not be called with the scheduler's mutex held.
func (sess *Session) lost(d segmodel.KeyframeDecision) {
	sess.mu.Lock()
	sess.kf.Lost(d)
	sess.mu.Unlock()
}

// noteServed records one answered request's latencies.
func (sess *Session) noteServed(inferMs, waitMs float64) {
	sess.mu.Lock()
	sess.served++
	sess.inferSum += inferMs
	sess.waitSum += waitMs
	sess.mu.Unlock()
}

// noteRejected records one admission rejection.
func (sess *Session) noteRejected() {
	sess.mu.Lock()
	sess.rejected++
	sess.mu.Unlock()
}

// noteShed records one stale frame displaced by latest-wins admission.
func (sess *Session) noteShed() {
	sess.mu.Lock()
	sess.shed++
	sess.mu.Unlock()
}

// Label renders the session's table identity ("3 10.0.0.1:5555").
func (st SessionStats) Label() string {
	return fmt.Sprintf("%d %s", st.ID, st.Remote)
}
