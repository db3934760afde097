package edge

import "testing"

// qjob is a queue test job: its session and a batch class.
type qjob struct {
	lane, seq, class int
}

// ringOrder lists the lanes in the ring by index into lanes.
func ringOrder(q *FairQueue[qjob], lanes []*Lane[qjob]) []int {
	var out []int
	for _, rl := range q.ring {
		for i, l := range lanes {
			if rl == l {
				out = append(out, i)
			}
		}
	}
	return out
}

func newLanes(n int) []*Lane[qjob] {
	lanes := make([]*Lane[qjob], n)
	for i := range lanes {
		lanes[i] = &Lane[qjob]{}
	}
	return lanes
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFairQueueRejectsAtDepth(t *testing.T) {
	q := NewFairQueue[qjob](2, RejectWhenFull{})
	lanes := newLanes(2)
	for i := 0; i < 2; i++ {
		if v, _ := q.Admit(lanes[i], qjob{lane: i}); v != VerdictAdmit {
			t.Fatalf("admit %d below depth: %v", i, v)
		}
	}
	if v, _ := q.Admit(lanes[0], qjob{lane: 0, seq: 1}); v != VerdictReject {
		t.Fatalf("admit at depth: %v, want reject", v)
	}
	if q.Queued() != 2 || lanes[0].Len() != 1 {
		t.Fatalf("reject changed the queue: queued %d, lane %d", q.Queued(), lanes[0].Len())
	}
}

// TestFairQueueShedKeepsRingPosition: a latest-wins shed replaces the
// lane's oldest job with the fresh one without moving the lane in the ring.
func TestFairQueueShedKeepsRingPosition(t *testing.T) {
	q := NewFairQueue[qjob](2, LatestWins{})
	lanes := newLanes(2)
	q.Admit(lanes[0], qjob{lane: 0, seq: 0})
	q.Admit(lanes[1], qjob{lane: 1, seq: 0})
	v, shed := q.Admit(lanes[0], qjob{lane: 0, seq: 1})
	if v != VerdictShedOldest || shed != (qjob{lane: 0, seq: 0}) {
		t.Fatalf("full queue with own work: %v shed %+v, want shed of seq 0", v, shed)
	}
	if got := ringOrder(q, lanes); !equalInts(got, []int{0, 1}) {
		t.Fatalf("ring after shed = %v, want [0 1]", got)
	}
	if q.Queued() != 2 {
		t.Fatalf("queued after shed = %d, want 2", q.Queued())
	}
	if j := q.Take(); j != (qjob{lane: 0, seq: 1}) {
		t.Fatalf("head after shed = %+v, want lane 0's fresh frame", j)
	}
}

// shedAlways asks for a shed on every arrival, whatever the lane holds.
type shedAlways struct{}

func (shedAlways) Name() string                       { return "shed-always" }
func (shedAlways) Admit(_, _, _ int) AdmissionVerdict { return VerdictShedOldest }

// TestFairQueueShedOnEmptyLaneRejects: a policy may only shed the arriving
// lane's own work, so a shed verdict on an empty lane degrades to reject.
func TestFairQueueShedOnEmptyLaneRejects(t *testing.T) {
	q := NewFairQueue[qjob](1, shedAlways{})
	lanes := newLanes(1)
	if v, _ := q.Admit(lanes[0], qjob{}); v != VerdictReject {
		t.Fatalf("shed on empty lane: %v, want reject", v)
	}
	if q.Queued() != 0 || len(q.ring) != 0 {
		t.Fatalf("degraded shed changed the queue: queued %d ring %d", q.Queued(), len(q.ring))
	}
}

// TestFairQueueBacklogNeverLapped: a lane with a backlog is served once per
// pass over the waiting lanes, however many fresh lanes join behind it.
func TestFairQueueBacklogNeverLapped(t *testing.T) {
	q := NewFairQueue[qjob](1000, RejectWhenFull{})
	backlog := &Lane[qjob]{}
	for i := 0; i < 5; i++ {
		q.Admit(backlog, qjob{lane: -1, seq: i})
	}
	// Taking a backlog job rotates its lane to the back of the ring, so
	// exactly the lanes ahead of it at that moment are served before its
	// next turn; lanes joining later wait behind it.
	fresh, gap, ahead := 0, 0, 0
	for served := 0; served < 5; {
		// Two fresh single-job lanes arrive before every take.
		for k := 0; k < 2; k++ {
			q.Admit(&Lane[qjob]{}, qjob{lane: fresh})
			fresh++
		}
		j := q.Take()
		if j.lane != -1 {
			gap++
			continue
		}
		if j.seq != served || gap != ahead {
			t.Fatalf("backlog job %d served after %d other takes, want job %d after %d", j.seq, gap, served, ahead)
		}
		served++
		gap, ahead = 0, len(q.ring)-1
	}
	if backlog.Len() != 0 {
		t.Fatalf("backlog left %d jobs", backlog.Len())
	}
}

// TestFairQueueGatherOnePerLane: Gather takes at most one job per lane per
// call, skips lanes whose head fails the predicate, keeps lanes with work
// in the ring and tops up a seed batch.
func TestFairQueueGatherOnePerLane(t *testing.T) {
	q := NewFairQueue[qjob](16, RejectWhenFull{})
	lanes := newLanes(3)
	q.Admit(lanes[0], qjob{lane: 0, seq: 0, class: 1})
	q.Admit(lanes[0], qjob{lane: 0, seq: 1, class: 1})
	q.Admit(lanes[1], qjob{lane: 1, seq: 0, class: 2})
	q.Admit(lanes[2], qjob{lane: 2, seq: 0, class: 1})

	same := func(j qjob) bool { return j.class == 1 }
	seed := []qjob{{lane: 9, class: 1}}
	batch := q.Gather(seed, 8, same)
	want := []qjob{{lane: 9, class: 1}, {lane: 0, seq: 0, class: 1}, {lane: 2, seq: 0, class: 1}}
	if len(batch) != len(want) {
		t.Fatalf("batch = %+v, want %+v", batch, want)
	}
	for i := range want {
		if batch[i] != want[i] {
			t.Fatalf("batch = %+v, want %+v", batch, want)
		}
	}
	if got := ringOrder(q, lanes); !equalInts(got, []int{0, 1}) {
		t.Fatalf("ring after gather = %v, want [0 1]", got)
	}
	if q.Queued() != 2 {
		t.Fatalf("queued after gather = %d, want 2", q.Queued())
	}
	// A batch already at max returns untouched.
	if full := q.Gather(batch[:1], 1, same); len(full) != 1 || q.Queued() != 2 {
		t.Fatalf("gather into a full batch took work: %+v", full)
	}
}

// TestFairQueueDrainLeavesRing: draining a lane removes its jobs and the
// lane from the ring; the other lanes keep their order.
func TestFairQueueDrainLeavesRing(t *testing.T) {
	q := NewFairQueue[qjob](16, RejectWhenFull{})
	lanes := newLanes(3)
	for i, l := range lanes {
		q.Admit(l, qjob{lane: i, seq: 0})
		q.Admit(l, qjob{lane: i, seq: 1})
	}
	drained := q.Drain(lanes[1])
	if len(drained) != 2 || drained[0].seq != 0 || drained[1].seq != 1 {
		t.Fatalf("drained %+v, want lane 1's two jobs oldest first", drained)
	}
	if got := ringOrder(q, lanes); !equalInts(got, []int{0, 2}) {
		t.Fatalf("ring after drain = %v, want [0 2]", got)
	}
	if q.Queued() != 4 || lanes[1].Len() != 0 {
		t.Fatalf("queued %d lane %d after drain, want 4 and 0", q.Queued(), lanes[1].Len())
	}
	if again := q.Drain(lanes[1]); again != nil {
		t.Fatalf("second drain returned %+v", again)
	}
	// The drained lane rejoins the ring on its next admission.
	q.Admit(lanes[1], qjob{lane: 1, seq: 2})
	if got := ringOrder(q, lanes); !equalInts(got, []int{0, 2, 1}) {
		t.Fatalf("ring after re-admit = %v, want [0 2 1]", got)
	}
}
