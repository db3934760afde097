package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/codec"
	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/edge"
	"edgeis/internal/live"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// serveClip is one clip of the serving stream with its engine seed.
type serveClip struct {
	clip dataset.Clip
	seed int64
}

// serveClipFrames is the length of the clips the serving stream is
// captured from: long enough for the VO to initialize and settle into
// tracking offloads.
const serveClipFrames = 100

// serveWorldSets is how many independent world sets one shard of the
// serving stream draws from; see serveClips.
const serveWorldSets = 3

// serveShards is how many shards the serving stream is captured in. Each
// set-up repetition captures one shard (see serveSetup), so the set-up is
// timed serveShards times while the stream is captured only once.
const serveShards = 3

// serveClips picks the clips of one shard of the serving stream: the
// dataset.All mix plus the scene-complexity and oil-field scenarios, eleven
// worlds per set, from serveWorldSets sets derived from the seed; each
// shard draws its own sets. Per-result serving cost follows the masks' size
// and shape, so averaging over many worlds is what keeps one seed's stream
// close to another's.
func serveClips(o options, shard int) []serveClip {
	frames := serveClipFrames
	if o.clipFrames < frames {
		frames = o.clipFrames
	}
	var clips []dataset.Clip
	for k := 0; k < serveWorldSets; k++ {
		// dataset offsets its per-clip seeds by less than 100.
		seed := o.seed + 1000*int64(shard*serveWorldSets+k)
		clips = append(clips, dataset.All(seed, frames)...)
		clips = append(clips, dataset.ComplexityClips(seed, frames)...)
		clips = append(clips, dataset.FieldClip(seed, frames))
	}
	if o.clips > 0 && o.clips < len(clips) {
		clips = clips[:o.clips]
	}
	out := make([]serveClip, len(clips))
	for i, c := range clips {
		out[i] = serveClip{c, engineSeed(o.seed, shard*len(clips)+i)}
	}
	return out
}

// serverMaxContour is transport.NewServer's default contour bound, which
// the offline reference must use to reproduce the server's results.
const serverMaxContour = 160

// serverInferScale is the edgeis-server default device (Jetson TX2).
const serverInferScale = 1.0

// newSimBackend builds the simulated edge that pipeline.NewEngine builds by
// default for a WiFi 5 run with the given seed.
func newSimBackend(seed int64) *pipeline.SimBackend {
	return pipeline.NewSimBackend(pipeline.SimBackendConfig{
		Model:      segmodel.New(segmodel.MaskRCNN),
		InferScale: 1,
		Profile:    netsim.DefaultProfile(netsim.WiFi5),
		Seed:       seed,
	})
}

// captureBackend records every offload the engine submits as the wire
// message a live client would send (live.ToFrameMsg).
type captureBackend struct {
	pipeline.EdgeBackend
	seed   int64
	grid   codec.Grid
	frames []*scene.Frame
	msgs   []*transport.FrameMsg
}

func (b *captureBackend) Bind(frames []*scene.Frame, queueDepth int) {
	b.frames = frames
	b.EdgeBackend.Bind(frames, queueDepth)
}

func (b *captureBackend) Submit(req *pipeline.OffloadRequest, sendAt float64) []pipeline.ScheduledResult {
	b.msgs = append(b.msgs, live.ToFrameMsg(req, b.frames[req.FrameIndex], b.grid, b.seed))
	return b.EdgeBackend.Submit(req, sendAt)
}

func (b *captureBackend) NoteDelivered() {
	if o, ok := b.EdgeBackend.(interface{ NoteDelivered() }); ok {
		o.NoteDelivered()
	}
}

// captureStream runs the edgeIS mobile arm over one shard's serving clips
// and returns each clip's offload stream in send order. Clips are
// independent, so two goroutines capture them side by side.
func captureStream(o options, shard int) [][]*transport.FrameMsg {
	clips := serveClips(o, shard)
	out := make([][]*transport.FrameMsg, len(clips))
	var wg sync.WaitGroup
	next := make(chan int, len(clips)) // sized to the number of sends
	for i := range clips {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = captureClip(clips[i].clip, clips[i].seed)
			}
		}()
	}
	wg.Wait()
	return out
}

func captureClip(clip dataset.Clip, seed int64) []*transport.FrameMsg {
	cam := benchCamera()
	be := &captureBackend{EdgeBackend: newSimBackend(seed), seed: seed, grid: codec.NewGrid(cam.Width, cam.Height)}
	eng := pipeline.NewEngine(pipeline.Config{
		World:       clip.World,
		Camera:      cam,
		Trajectory:  clip.Traj,
		Frames:      clip.Frames,
		CameraSpeed: clip.CameraSpeed,
		Seed:        seed,
		Backend:     be,
	}, core.NewSystem(core.Config{Camera: cam, Seed: seed}))
	eng.Run()
	return be.msgs
}

// frameInput converts a decoded wire frame into the model input and its
// guidance exactly as transport.Server does before submitting it.
func frameInput(frame *transport.FrameMsg) (segmodel.Input, segmodel.Guidance) {
	in := segmodel.Input{
		Width:   int(frame.Width),
		Height:  int(frame.Height),
		Objects: frame.Objects,
		Seed:    frame.Seed,
	}
	if len(frame.QualityLevels) > 0 && frame.TileCols > 0 {
		levels := frame.QualityLevels
		cols := int(frame.TileCols)
		in.Quality = func(x, y int) float64 {
			idx := (y/codec.TileSize)*cols + x/codec.TileSize
			if idx < 0 || idx >= len(levels) {
				return 1
			}
			return float64(levels[idx])
		}
	}
	var g segmodel.Guidance
	if len(frame.Areas) > 0 {
		g = &accel.Plan{Areas: frame.Areas}
	}
	return in, g
}

// buildResult is the server's result construction for one inference.
func buildResult(frameIndex int32, out *segmodel.Result, inferMs float64) *transport.ResultMsg {
	res := &transport.ResultMsg{FrameIndex: frameIndex, InferMs: inferMs}
	for _, d := range out.Detections {
		res.Detections = append(res.Detections, transport.FromDetection(d, serverMaxContour))
	}
	return res
}

// resultHash fingerprints a result as it reads after crossing the wire
// (contour vertices travel as float32), without allocating.
func resultHash(res *transport.ResultMsg) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(uint32(res.FrameIndex)))
	put(math.Float64bits(res.InferMs))
	for _, d := range res.Detections {
		put(uint64(uint32(d.ObjectID))<<32 | uint64(uint32(d.Label)))
		put(math.Float64bits(d.Score))
		put(uint64(uint32(d.Box.MinX))<<32 | uint64(uint32(d.Box.MinY)))
		put(uint64(uint32(d.Box.MaxX))<<32 | uint64(uint32(d.Box.MaxY)))
		put(uint64(uint32(d.Width))<<32 | uint64(uint32(d.Height)))
		put(uint64(len(d.Contour)))
		for _, v := range d.Contour {
			put(uint64(math.Float32bits(float32(v.X)))<<32 | uint64(math.Float32bits(float32(v.Y))))
		}
	}
	return h.Sum64()
}

// resultIoUs scores a result's masks against the frame's ground truth the
// way the mobile would see them (contours re-rasterized).
func resultIoUs(res *transport.ResultMsg, frame *transport.FrameMsg) []float64 {
	preds := make([]metrics.PredictedMask, 0, len(res.Detections))
	for i := range res.Detections {
		d := res.Detections[i].ToDetection()
		preds = append(preds, metrics.PredictedMask{Label: d.Label, Mask: d.Mask})
	}
	truths := make([]metrics.TruthMask, 0, len(frame.Objects))
	for _, o := range frame.Objects {
		truths = append(truths, metrics.TruthMask{ObjectID: o.ObjectID, Label: o.Label, Mask: o.Visible})
	}
	return metrics.MatchFrame(preds, truths)
}

// modelAccel serves a scheduler worker the way transport.Server's
// accelerator does with no wall occupancy: the model runs on the host CPU
// and the reported latency is the model's simulated one.
type modelAccel struct{ model *segmodel.Model }

func (a modelAccel) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	out := a.model.Run(in, g)
	return out, out.TotalMs() * serverInferScale
}

func (a modelAccel) RunWarped(in segmodel.Input, g segmodel.Guidance, d segmodel.KeyframeDecision) (*segmodel.Result, float64) {
	out := a.model.RunWarped(in, g, d)
	return out, out.TotalMs() * serverInferScale
}

// replay holds the offline per-call timings of the serving layers over the
// distinct frames of the stream, and the reference result of each frame.
type replay struct {
	frameEncode, frameDecode   float64 // µs
	run, warped, infer, build  float64 // ms
	resultEncode, resultDecode float64 // µs
	upBytes, downBytes         float64
	ref                        map[*transport.FrameMsg]uint64
}

// replayServing pushes every stream frame through the server's steps one
// call at a time — encode, decode, segmodel.Run, FromDetection, result
// encode and decode, and Session.Infer on a socket-free scheduler — reps
// times, and records each step's mean wall time. The first repetition's
// results are the reference the served results must equal. warped replays
// the keyframe policy over each clip in order and times RunWarped on the
// frames it would serve from the feature cache.
func replayServing(clips [][]*transport.FrameMsg, reps int, timed bool, policy segmodel.KeyframePolicy) (*replay, error) {
	model := segmodel.New(segmodel.MaskRCNN)
	r := &replay{ref: map[*transport.FrameMsg]uint64{}}
	var sched *edge.Scheduler
	var sess *edge.Session
	if timed {
		sched = edge.NewScheduler(edge.Config{
			Workers:        1,
			NewAccelerator: func(int) edge.Accelerator { return modelAccel{model.Clone()} },
		})
		defer sched.Close()
		sess = sched.NewSession("replay")
		defer sess.Close()
	}
	var n int
	var fe, fd, run, infer, build, re, rd time.Duration
	for rep := 0; rep < reps; rep++ {
		for _, clip := range clips {
			for _, msg := range clip {
				t0 := time.Now()
				up := transport.MarshalFrame(msg)
				t1 := time.Now()
				dec, err := transport.UnmarshalFrame(up)
				if err != nil {
					return nil, err
				}
				t2 := time.Now()
				in, g := frameInput(dec)
				out := model.Run(in, g)
				t3 := time.Now()
				res := buildResult(dec.FrameIndex, out, out.TotalMs()*serverInferScale)
				t4 := time.Now()
				down := transport.MarshalResult(res)
				t5 := time.Now()
				if _, err := transport.UnmarshalResult(down); err != nil {
					return nil, err
				}
				t6 := time.Now()
				if rep == 0 {
					r.ref[msg] = resultHash(res)
				}
				if !timed {
					continue
				}
				if _, _, err := sess.Infer(in, g); err != nil {
					return nil, err
				}
				t7 := time.Now()
				n++
				fe += t1.Sub(t0)
				fd += t2.Sub(t1)
				run += t3.Sub(t2)
				build += t4.Sub(t3)
				re += t5.Sub(t4)
				rd += t6.Sub(t5)
				infer += t7.Sub(t6)
				r.upBytes += float64(len(up) + 4) // 4-byte length prefix
				r.downBytes += float64(len(down) + 4)
			}
		}
		if !timed {
			break
		}
	}
	if n == 0 {
		return r, nil
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	r.frameEncode, r.frameDecode = us(fe), us(fd)
	r.run, r.build, r.infer = per(run), per(build), per(infer)
	r.resultEncode, r.resultDecode = us(re), us(rd)
	r.upBytes /= float64(n)
	r.downBytes /= float64(n)

	var warped time.Duration
	var nw int
	for rep := 0; rep < reps; rep++ {
		for _, clip := range clips {
			cache := segmodel.NewFeatureCache()
			for _, msg := range clip {
				in, g := frameInput(msg)
				d := policy.Decide(cache, in, g)
				if d.Keyframe {
					continue
				}
				t0 := time.Now()
				model.RunWarped(in, g, d)
				warped += time.Since(t0)
				nw++
			}
		}
	}
	if nw > 0 {
		r.warped = ms(warped) / float64(nw)
	}
	return r, nil
}

// sessionBytes measures the heap one open edge session holds once its
// keyframe feature cache is warm: n sessions created through
// Scheduler.NewSession each serve one guided frame, and the heap growth
// after a full GC is divided among them.
func sessionBytes(clips [][]*transport.FrameMsg, policy segmodel.KeyframePolicy, n int) (float64, error) {
	var guided []*transport.FrameMsg
	for _, clip := range clips {
		for _, msg := range clip {
			if len(msg.Areas) > 0 {
				guided = append(guided, msg)
			}
		}
	}
	if len(guided) == 0 {
		return 0, nil
	}
	model := segmodel.New(segmodel.MaskRCNN)
	sched := edge.NewScheduler(edge.Config{
		Workers:        1,
		Keyframe:       policy,
		NewAccelerator: func(int) edge.Accelerator { return modelAccel{model.Clone()} },
	})
	defer sched.Close()
	inputs := make([]segmodel.Input, len(guided))
	plans := make([]segmodel.Guidance, len(guided))
	for i, msg := range guided {
		inputs[i], plans[i] = frameInput(msg)
	}
	sessions := make([]*edge.Session, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sess := sched.NewSession("bench")
		k := i % len(inputs)
		if _, _, err := sess.Infer(inputs[k], plans[k]); err != nil {
			return 0, err
		}
		sessions = append(sessions, sess)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, s := range sessions {
		s.Close()
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n), nil
}
