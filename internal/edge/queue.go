package edge

// FairQueue is the edge's admission queue, written once and driven by
// every model of the edge: Scheduler calls it under its mutex on the wall
// clock, and the loadgen simulator calls it once per replica from its
// virtual-time event heap. It holds no lock and reads no clock; it returns
// verdicts and jobs, and callers do the accounting.
//
// Jobs wait in per-session Lanes. The ring holds the lanes with queued
// work in round-robin order, and a lane is in the ring iff it is
// non-empty. Taking a job rotates the ring: the front lane gives up its
// oldest job and, if it still has work, re-joins at the back. Rotation
// (rather than an index walk with removals) is what makes the round-robin
// starvation-free: a lane with a backlog is served exactly once per pass
// over the waiting lanes, and a churn of fresh single-job lanes joining at
// the back can never lap it.
type FairQueue[J any] struct {
	ring   []*Lane[J]
	queued int
	depth  int
	policy AdmissionPolicy
}

// Lane is one session's FIFO of queued jobs inside a FairQueue. The zero
// value is an empty lane.
type Lane[J any] struct {
	jobs []J
}

// Len returns the number of jobs queued on the lane.
func (l *Lane[J]) Len() int { return len(l.jobs) }

// NewFairQueue returns an empty queue bounded at depth jobs whose verdicts
// at the bound come from policy.
func NewFairQueue[J any](depth int, policy AdmissionPolicy) *FairQueue[J] {
	return &FairQueue[J]{depth: depth, policy: policy}
}

// Queued returns the number of jobs waiting across all lanes.
func (q *FairQueue[J]) Queued() int { return q.queued }

// Admit applies the admission policy to job j arriving on lane l and
// executes the verdict it returns. On VerdictAdmit j joins the lane; on
// VerdictShedOldest the lane's oldest job is displaced and returned as
// shed, and j takes its place; on VerdictReject nothing changes. A policy
// may only shed the arriving lane's own work, so a shed verdict on an
// empty lane degrades to VerdictReject.
func (q *FairQueue[J]) Admit(l *Lane[J], j J) (v AdmissionVerdict, shed J) {
	// Ring membership is captured before the verdict: a shed empties the
	// lane momentarily without the lane ever leaving the ring.
	inRing := len(l.jobs) > 0
	switch q.policy.Admit(q.queued, q.depth, len(l.jobs)) {
	case VerdictReject:
		return VerdictReject, shed
	case VerdictShedOldest:
		if !inRing {
			return VerdictReject, shed
		}
		shed = l.pop()
		q.queued--
		v = VerdictShedOldest
	}
	if !inRing {
		q.ring = append(q.ring, l)
	}
	l.jobs = append(l.jobs, j)
	q.queued++
	return v, shed
}

// Take pops the front lane's oldest job; the lane rotates to the back of
// the ring while it still has work. The caller must have checked that
// Queued is positive.
func (q *FairQueue[J]) Take() J {
	l := q.ring[0]
	q.ring = q.ring[1:]
	j := l.pop()
	q.queued--
	if len(l.jobs) > 0 {
		q.ring = append(q.ring, l)
	}
	return j
}

// Gather tops batch up to max jobs with the oldest job of each lane for
// which same reports true, scanning the ring in order and taking at most
// one job per lane per call, so the batch former cannot out-run
// round-robin fairness. A batch already at max returns at once.
func (q *FairQueue[J]) Gather(batch []J, max int, same func(J) bool) []J {
	for i := 0; len(batch) < max && i < len(q.ring); {
		l := q.ring[i]
		if !same(l.jobs[0]) {
			i++
			continue
		}
		batch = append(batch, l.pop())
		q.queued--
		if len(l.jobs) > 0 {
			// The lane keeps its ring position but contributed its one job
			// for this pass; move past it.
			i++
		} else {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
		}
	}
	return batch
}

// Drain removes every job queued on lane l, takes the lane out of the
// ring, and returns the removed jobs oldest first.
func (q *FairQueue[J]) Drain(l *Lane[J]) []J {
	jobs := l.jobs
	if len(jobs) == 0 {
		return nil
	}
	l.jobs = nil
	q.queued -= len(jobs)
	for i, rl := range q.ring {
		if rl == l {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
			break
		}
	}
	return jobs
}

// pop removes and returns the lane's oldest job.
func (l *Lane[J]) pop() J {
	j := l.jobs[0]
	l.jobs = l.jobs[1:]
	return j
}
