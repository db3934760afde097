package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

const (
	// serveConns is the number of client connections: no more than the
	// 2 cores the benchmark is sized for, so clients never outnumber them.
	serveConns = 2
	// replayReps is how many times the traced run replays the stream
	// through the serving layers offline.
	replayReps = 1
	// sessionSamples is how many warm sessions edge.session_bytes averages.
	sessionSamples = 256
	// sessionGap is the pause in serve-open's schedule between one clip's
	// session closing and the next opening on a connection: the next user
	// arrives after the previous one leaves, so reconnecting is not
	// counted as generator lateness.
	sessionGap = 20 * time.Millisecond
	// stuckGrace is how long past its deadline a phase may run before its
	// clients are closed under it and the run fails.
	stuckGrace = 20 * time.Second
)

// openKeyframe is serve-open's skip-compute policy.
var openKeyframe = segmodel.KeyframePolicy{Interval: 4}

// serverOptions configures the edge server: edgeis-server defaults
// (Mask R-CNN on a TX2 profile, reject-when-full, serial connections, no
// wall occupancy) with one accelerator per connection; serve-open adds
// latest-wins admission, gathered batches of up to 2 and the keyframe
// feature cache.
func serverOptions(open bool) []transport.ServerOption {
	opts := []transport.ServerOption{
		transport.WithInferScale(serverInferScale),
		transport.WithAccelerators(serveConns),
	}
	if open {
		opts = append(opts,
			transport.WithAdmissionPolicy(edge.LatestWins{}),
			transport.WithDequeuePolicy(edge.GatherBatch{Max: 2}),
			transport.WithKeyframePolicy(openKeyframe))
	}
	return opts
}

// serveEnv is a started server with its connected clients.
type serveEnv struct {
	srv     *transport.Server
	addr    string
	clients []*transport.Client
}

func startServer(open bool, dial bool) (*serveEnv, error) {
	srv := transport.NewServer(segmodel.New(segmodel.MaskRCNN), serverOptions(open)...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close() // stops the scheduler's workers
		return nil, err
	}
	env := &serveEnv{srv: srv, addr: addr.String()}
	for i := 0; dial && i < serveConns; i++ {
		c, err := transport.Dial(env.addr, 5*time.Second)
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, c)
	}
	return env, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
}

// servedKey identifies one distinct answer to one stream frame.
type servedKey struct {
	msg  *transport.FrameMsg
	hash uint64
}

type servedResult struct {
	res   *transport.ResultMsg
	count int
}

// clientRec is one client goroutine's record of a phase.
type clientRec struct {
	tr   *tracer // nil when untraced
	heap *heapPeak
	// lat is the latency each served frame saw (closed: Send to result;
	// open: due time to result); rtt is Send to result; late is how far
	// behind its schedule each open-loop send ran.
	lat, rtt, late []float64
	// doneAt is when each result arrived, from the phase's start.
	doneAt                           []time.Duration
	start                            time.Time
	offered, dropped, rejected, shed int
	lost                             int
	served                           atomic.Int64
	distinct                         map[servedKey]*servedResult
	wall                             time.Duration
}

func newClientRec(traced bool) *clientRec {
	r := &clientRec{heap: newHeapPeak(), distinct: map[servedKey]*servedResult{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *clientRec) record(msg *transport.FrameMsg, res *transport.ResultMsg) {
	key := servedKey{msg, resultHash(res)}
	if d := r.distinct[key]; d != nil {
		d.count++
	} else {
		r.distinct[key] = &servedResult{res: res, count: 1}
	}
	r.doneAt = append(r.doneAt, time.Since(r.start))
	r.served.Add(1)
	r.heap.observe()
}

// settle folds a finished client's wire accounting into the record.
func (r *clientRec) settle(c *transport.Client) {
	r.rejected += c.Rejected()
	r.shed += c.Shed()
	r.lost += c.ConnLost()
}

// closedClient keeps exactly one frame outstanding, walking the stream
// from start until the deadline.
func closedClient(c *transport.Client, stream []*transport.FrameMsg, start int, deadline time.Time, r *clientRec) {
	results := c.Results()
	for i := start; time.Now().Before(deadline); i++ {
		msg := stream[i%len(stream)]
		done := r.tr.span("serve.rtt")
		t0 := time.Now()
		r.offered++
		if !c.Send(msg) {
			r.dropped++
			done()
			continue
		}
		res, ok := <-results
		rtt := ms(time.Since(t0))
		done()
		if !ok {
			return // connection ended; settle counts the frame as lost
		}
		done = r.tr.span("serve.client")
		r.lat = append(r.lat, rtt)
		r.rtt = append(r.rtt, rtt)
		r.record(msg, res)
		done()
	}
}

// pending tracks an open-loop connection's frames in flight by frame index.
type pending struct {
	mu sync.Mutex
	m  map[int32][]sent
}

type sent struct {
	msg       *transport.FrameMsg
	due, sent time.Time
}

func (p *pending) put(s sent) {
	p.mu.Lock()
	p.m[s.msg.FrameIndex] = append(p.m[s.msg.FrameIndex], s)
	p.mu.Unlock()
}

func (p *pending) take(idx int32) (sent, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.m[idx]
	if len(q) == 0 {
		return sent{}, false
	}
	p.m[idx] = q[1:]
	return q[0], true
}

// openConn drives one open-loop connection: frames are due on a seeded
// Poisson schedule at rate frames/s regardless of how the server keeps up.
// Each clip's stream is one session; between clips the connection closes
// once every frame is answered and a new one opens for the next clip.
func openConn(addr string, clips [][]*transport.FrameMsg, first int, rng *rand.Rand, rate float64,
	start, deadline time.Time, r *clientRec) error {
	due := start
	for k := first; ; k = (k + 1) % len(clips) {
		done := r.tr.span("gen.session")
		c, err := transport.Dial(addr, 5*time.Second)
		done()
		if err != nil {
			return err
		}
		pend := &pending{m: map[int32][]sent{}}
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			for res := range c.Results() {
				now := time.Now()
				s, ok := pend.take(res.FrameIndex)
				if !ok {
					continue // unmatched results surface as a conservation failure
				}
				r.lat = append(r.lat, ms(now.Sub(s.due)))
				r.rtt = append(r.rtt, ms(now.Sub(s.sent)))
				r.record(s.msg, res)
			}
		}()
		finished := false
		for _, msg := range clips[k] {
			due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
			if due.After(deadline) {
				finished = true
				break
			}
			done = r.tr.span("gen.idle")
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			done()
			done = r.tr.span("gen.send")
			now := time.Now()
			r.late = append(r.late, ms(now.Sub(due)))
			pend.put(sent{msg: msg, due: due, sent: now})
			r.offered++
			if !c.Send(msg) {
				r.dropped++
				pend.take(msg.FrameIndex)
			}
			done()
		}
		done = r.tr.span("gen.session")
		// Close only once every sent frame is answered, so no frame is
		// lost to the reconnect; a stuck server fails the run instead.
		waitUntil := time.Now().Add(stuckGrace)
		for int(r.served.Load())+r.rejected+r.shed+c.Rejected()+c.Shed() < r.offered-r.dropped &&
			time.Now().Before(waitUntil) {
			time.Sleep(100 * time.Microsecond)
		}
		c.Close()
		<-readerDone
		r.settle(c)
		done()
		if finished {
			return nil
		}
		due = due.Add(sessionGap)
	}
}

// servePhase is one measured phase of serve-closed or serve-open.
type servePhase struct {
	recs       []*clientRec
	wall       time.Duration
	allocs     uint64
	maskAllocs uint64
	sched      edge.Stats
	srvServed  int
	stuck      bool
}

func (p *servePhase) sum(f func(*clientRec) int) int {
	n := 0
	for _, r := range p.recs {
		n += f(r)
	}
	return n
}

func (p *servePhase) all(f func(*clientRec) []float64) []float64 {
	var out []float64
	for _, r := range p.recs {
		out = append(out, f(r)...)
	}
	return out
}

func (p *servePhase) served() int {
	return p.sum(func(r *clientRec) int { return int(r.served.Load()) })
}

// measureServe runs one phase against env. Closed-loop clients reuse env's
// connections; open-loop connections dial their own sessions.
func measureServe(env *serveEnv, clips [][]*transport.FrameMsg, o options, open, traced bool) (*servePhase, error) {
	var flat []*transport.FrameMsg
	for _, c := range clips {
		flat = append(flat, c...)
	}
	p := &servePhase{}
	for i := 0; i < serveConns; i++ {
		p.recs = append(p.recs, newClientRec(traced))
	}
	runtime.GC() // set-up garbage must not count toward the phase's heap peak
	m0, a0 := mallocs(), mask.Allocs()
	start := time.Now()
	for _, r := range p.recs {
		r.start = start
	}
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := p.recs[i]
			t0 := time.Now()
			if open {
				rng := rand.New(rand.NewSource(o.seed*7919 + int64(i)))
				errs[i] = openConn(env.addr, clips, i*len(clips)/serveConns, rng, o.rate/serveConns, start, deadline, r)
			} else {
				closedClient(env.clients[i], flat, i*len(flat)/serveConns, deadline, r)
			}
			r.wall = time.Since(t0)
		}(i)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Until(deadline) + stuckGrace):
		p.stuck = true
		for _, c := range env.clients {
			c.Close()
		}
		<-finished
	}
	p.wall = time.Since(start)
	p.allocs, p.maskAllocs = mallocs()-m0, mask.Allocs()-a0
	for i, c := range env.clients {
		c.Close()
		p.recs[i].settle(c)
	}
	env.clients = nil
	env.srv.Close()
	st := env.srv.Stats()
	p.sched, p.srvServed = st.Scheduler, st.Served
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *servePhase) e2e(setupS float64) map[string]float64 {
	served := p.served()
	offered := p.sum(func(r *clientRec) int { return r.offered })
	peak := 0.0
	for _, r := range p.recs {
		if m := r.heap.mib(); m > peak {
			peak = m
		}
	}
	lat := p.all(func(r *clientRec) []float64 { return r.lat })
	var doneAt []time.Duration
	for _, r := range p.recs {
		doneAt = append(doneAt, r.doneAt...)
	}
	var sumIoU float64
	var nIoU int
	for _, r := range p.recs {
		for k, d := range r.distinct {
			for _, v := range resultIoUs(d.res, k.msg) {
				sumIoU += float64(d.count) * v
				nIoU += d.count
			}
		}
	}
	e := map[string]float64{
		"fps":              medianRate(doneAt, p.wall),
		"lat_ms_p50":       quantile(lat, 0.50),
		"lat_ms_p99":       quantile(lat, 0.99),
		"allocs_per_frame": float64(p.allocs) / float64(max(served, 1)),
		"mem_peak_mb":      peak,
		"served_ratio":     float64(served) / float64(max(offered, 1)),
		"setup_s":          setupS,
	}
	if nIoU > 0 {
		e["iou"] = sumIoU / float64(nIoU)
	}
	return e
}

// check applies the serving correctness gate: the conservation law on both
// sides of the wire, the keyframe partition law, and (closed loop, where
// every frame is served statelessly) equality with the offline reference.
func (p *servePhase) check(out *outcome, name string, open bool, ref map[*transport.FrameMsg]uint64) {
	served := p.served()
	offered := p.sum(func(r *clientRec) int { return r.offered })
	rejected := p.sum(func(r *clientRec) int { return r.rejected })
	shed := p.sum(func(r *clientRec) int { return r.shed })
	dropped := p.sum(func(r *clientRec) int { return r.dropped })
	lost := p.sum(func(r *clientRec) int { return r.lost })
	out.attempted += offered
	out.failed += offered - served
	if p.stuck {
		out.failf("%s: clients still waiting %v after the deadline", name, stuckGrace)
	}
	if offered != served+rejected+shed+dropped || lost != 0 {
		out.failf("%s: offered %d != served %d + rejected %d + shed %d + dropped %d (lost %d)",
			name, offered, served, rejected, shed, dropped, lost)
	}
	if p.srvServed != served || p.sched.Rejected != rejected || p.sched.Shed != shed || p.sched.Cancelled != 0 {
		out.failf("%s: server served/rejected/shed/cancelled %d/%d/%d/%d, clients saw %d/%d/%d/0",
			name, p.srvServed, p.sched.Rejected, p.sched.Shed, p.sched.Cancelled, served, rejected, shed)
	}
	if open && p.sched.KeyframesServed+p.sched.WarpedServed != p.sched.Served {
		out.failf("%s: keyframes %d + warped %d != served %d",
			name, p.sched.KeyframesServed, p.sched.WarpedServed, p.sched.Served)
	}
	if open {
		return
	}
	for _, r := range p.recs {
		for k, d := range r.distinct {
			if ref[k.msg] != k.hash {
				out.failed += d.count
				out.failf("%s: frame %d served %d time(s) with a result that differs from the offline reference",
					name, k.msg.FrameIndex, d.count)
			}
		}
	}
}

// lateLimitShare is the benchmark's bound on open-loop generator lag: a
// run whose median send runs later than this share of a connection's mean
// inter-arrival gap has fallen behind its schedule, so the load it offered
// was not the one it reports, and the run is invalid. Single late sends are
// expected — the generator shares the server's cores, and Go timers fire on
// a ~1 ms grain — and are reported as gen.late_ms_p99; each frame is timed
// from when it was due, so that lateness stays inside the latency figures.
// It equals lat_ms_p50's bound in BENCHMARK.json.
const lateLimitShare = 0.25

func checkGenerator(out *outcome, name string, p *servePhase, rate float64, log io.Writer) {
	late := p.all(func(r *clientRec) []float64 { return r.late })
	p50, p99 := quantile(late, 0.5), quantile(late, 0.99)
	gapMs := 1000 * serveConns / rate
	fmt.Fprintf(log, "%s: generator lateness p50 %.3f ms, p99 %.3f ms over %d sends (gap %.1f ms)\n",
		name, p50, p99, len(late), gapMs)
	if limit := lateLimitShare * gapMs; p50 > limit {
		out.failf("%s: generator median lateness %.3f ms exceeds %.3f ms; the run fell behind its schedule",
			name, p50, limit)
	}
}

// serveSetup sets the serving workload up serveShards times: each time it
// captures one shard of the offload stream and starts the server with its
// clients. setup_s is the median of the repetitions; the stream is all the
// shards together, served by the last server.
func serveSetup(o options, open bool) ([][]*transport.FrameMsg, *serveEnv, float64, error) {
	var clips [][]*transport.FrameMsg
	var prev *serveEnv
	shard := 0
	env, setupS, err := repeatMedian(serveShards, func() (*serveEnv, error) {
		if prev != nil {
			prev.close()
		}
		clips = append(clips, captureStream(o, shard)...)
		shard++
		env, err := startServer(open, true)
		prev = env
		return env, err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if open {
		// Open-loop connections dial per session; the set-up dials only
		// prove the server accepts them.
		for _, c := range env.clients {
			c.Close()
		}
		env.clients = nil
	}
	frames := 0
	for _, c := range clips {
		frames += len(c)
	}
	if frames == 0 {
		env.close()
		return nil, nil, 0, fmt.Errorf("the mobile arm offloaded no frames")
	}
	return clips, env, setupS, nil
}

func runServe(o options, open bool, log io.Writer) (*outcome, error) {
	name := "serve-closed"
	if open {
		name = "serve-open"
	}
	clips, env, setupS, err := serveSetup(o, open)
	if err != nil {
		return nil, err
	}
	untraced, err := measureServe(env, clips, o, open, false)
	if err != nil {
		return nil, err
	}
	ref, err := replayServing(clips, 1, false, openKeyframe)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: untraced.e2e(setupS)}
	untraced.check(out, name, open, ref.ref)
	if open {
		checkGenerator(out, name, untraced, o.rate, log)
	}
	frames := 0
	for _, c := range clips {
		frames += len(c)
	}
	fmt.Fprintf(log, "%s: %d offloaded frames over %d clips, %d served, %d latency samples\n",
		name, frames, len(clips), untraced.served(), len(untraced.all(func(r *clientRec) []float64 { return r.lat })))
	if !o.trace {
		return out, nil
	}

	if env, err = startServer(open, !open); err != nil {
		return nil, err
	}
	traced, err := measureServe(env, clips, o, open, true)
	if err != nil {
		return nil, err
	}
	traced.check(out, name+" (traced)", open, ref.ref)
	queue := traced
	if !open {
		// serve-closed never queues, so its traced run adds an open-loop
		// phase on the serve-open server for the edge queue's layers:
		// admission verdicts, gathering and keyframe decisions.
		if env, err = startServer(true, false); err != nil {
			return nil, err
		}
		oq := o
		oq.seconds = o.seconds / 2
		if queue, err = measureServe(env, clips, oq, true, true); err != nil {
			return nil, err
		}
		queue.check(out, name+" (open-loop phase)", true, nil)
		checkGenerator(out, name+" (open-loop phase)", queue, o.rate, log)
	}
	rp, err := replayServing(clips, replayReps, true, openKeyframe)
	if err != nil {
		return nil, err
	}
	l := traced.layers(rp, open)
	queue.queueLayers(l)
	if l["edge.session_bytes"], err = sessionBytes(clips, openKeyframe, sessionSamples); err != nil {
		return nil, err
	}
	setOverhead(l, out.e2e, traced.e2e(setupS))
	checkAccounting(out, name, l)
	setLayerDefaults(l)
	out.layers = l
	return out, nil
}

// layers derives the serving per-layer metrics of one phase: offline
// per-call timings, and the wire share of the round trip that the offline
// replays (and, with a queue, the scheduler's wait) do not explain.
func (p *servePhase) layers(rp *replay, open bool) map[string]float64 {
	rtt := p.all(func(r *clientRec) []float64 { return r.rtt })
	l := map[string]float64{
		"transport.frame_encode_us":  rp.frameEncode,
		"transport.frame_decode_us":  rp.frameDecode,
		"transport.result_build_ms":  rp.build,
		"transport.result_encode_us": rp.resultEncode,
		"transport.result_decode_us": rp.resultDecode,
		"transport.up_bytes":         rp.upBytes,
		"transport.down_bytes":       rp.downBytes,
		"segmodel.run_ms":            rp.run,
		"segmodel.warped_ms":         rp.warped,
		"edge.infer_ms":              rp.infer,
		"edge.handoff_ms":            rp.infer - rp.run,
		"mask.pool_allocs_per_frame": float64(p.maskAllocs) / float64(max(p.served(), 1)),
	}
	offline := (rp.frameEncode+rp.frameDecode+rp.resultEncode+rp.resultDecode)/1000 + rp.infer + rp.build
	l["transport.wire_ms"] = mean(rtt) - offline
	if open {
		l["transport.wire_ms"] -= p.sched.MeanWaitMs
	}
	// Each client goroutine's timeline should be covered by its spans.
	var busy, wall time.Duration
	for _, r := range p.recs {
		busy += r.tr.rootTime()
		wall += r.wall
	}
	l["trace.unaccounted_ratio"] = 1 - float64(busy)/float64(wall)
	return l
}

// queueLayers adds the edge scheduler's own accounting and the open-loop
// generator's counts from a phase that ran the serve-open server.
func (p *servePhase) queueLayers(l map[string]float64) {
	st := p.sched
	l["edge.wait_ms_mean"] = st.MeanWaitMs
	l["edge.wait_ms_p95"] = st.P95WaitMs
	l["edge.queue_depth_mean"] = st.MeanQueueDepth
	l["edge.batch_size_mean"] = st.MeanBatchSize
	l["edge.rejected"] = float64(st.Rejected)
	l["edge.shed"] = float64(st.Shed)
	if kw := st.KeyframesServed + st.WarpedServed; kw > 0 {
		l["edge.keyframe_ratio"] = float64(st.KeyframesServed) / float64(kw)
	}
	l["gen.offered"] = float64(p.sum(func(r *clientRec) int { return r.offered }))
	l["gen.served"] = float64(p.served())
	l["gen.dropped"] = float64(p.sum(func(r *clientRec) int { return r.dropped }))
	l["gen.late_ms_p99"] = quantile(p.all(func(r *clientRec) []float64 { return r.late }), 0.99)
}
