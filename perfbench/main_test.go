package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"edgeis/internal/baseline"
	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/device"
	"edgeis/internal/geom"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// toyArgs sizes a workload so each run takes a second or two, with an
// open-loop rate low enough to stay on schedule under the race detector.
func toyArgs(workload, trace string) []string {
	return []string{"-workload", workload, "-seed", "5", "-seconds", "0.4", "-trace", trace,
		"-clips", "2", "-clip-frames", "100", "-rate", "40"}
}

// runJSON runs the command and decodes its last stdout line, failing the
// test unless it exits 0.
func runJSON(t *testing.T, args []string) map[string]json.RawMessage {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, stdout.String())
	}
	return top
}

func TestEveryWorkloadPrintsEveryMetricWithItsUnit(t *testing.T) {
	for _, workload := range []string{"track-mixed", "serve-closed", "serve-open"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(workload+"/trace="+trace, func(t *testing.T) {
				top := runJSON(t, toyArgs(workload, trace))
				if len(top) != 4 {
					t.Fatalf("result keys %v, want correct, attempted, failed, metrics", keys(top))
				}
				var rep report
				raw, _ := json.Marshal(top)
				if err := json.Unmarshal(raw, &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					case isSelfTime(d.name) && m.Value < 0:
						t.Errorf("layer %s self time %v < 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					if u := rep.Metrics["trace.unaccounted_ratio"].Value; u > accountingTolerance || u < -accountingTolerance {
						t.Errorf("spans leave %v of the wall time unaccounted", u)
					}
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "lat_ms_p50" && m.Bound != lateLimitShare {
			t.Errorf("lat_ms_p50 bound %v, generator lag bound %v", m.Bound, lateLimitShare)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range b.Workloads {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", w.Name, "-seconds", "-1"}, &stdout, &stderr); code != 2 {
			t.Errorf("workload %s: bad -seconds gave exit %d, want the usage error 2", w.Name, code)
		}
	}
}

func TestServeGateRejectsTamperedResult(t *testing.T) {
	o := options{seed: 3, seconds: 0.3, clipFrames: 100, clips: 2, rate: defaultOpenRate}
	clips, env, _, err := serveSetup(o, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := measureServe(env, clips, o, false, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := replayServing(clips, 1, false, openKeyframe)
	if err != nil {
		t.Fatal(err)
	}
	clean := &outcome{}
	p.check(clean, "serve-closed", false, ref.ref)
	if len(clean.problems) != 0 {
		t.Fatalf("untampered run failed the gate: %v", clean.problems)
	}

	// Serve one frame a result whose first contour vertex moved by a pixel.
	r := p.recs[0]
	for k, d := range r.distinct {
		bad := *d.res
		bad.Detections = append([]transport.WireDetection(nil), d.res.Detections...)
		for i := range bad.Detections {
			if len(bad.Detections[i].Contour) > 0 {
				bad.Detections[i].Contour = append([]geom.Vec2(nil), bad.Detections[i].Contour...)
				bad.Detections[i].Contour[0].X++
				break
			}
		}
		r.distinct[servedKey{k.msg, resultHash(&bad)}] = &servedResult{res: &bad, count: 1}
		r.served.Add(1)
		r.offered++
		p.srvServed++
		break
	}
	tampered := &outcome{}
	p.check(tampered, "serve-closed", false, ref.ref)
	if len(tampered.problems) == 0 || tampered.failed == 0 {
		t.Fatalf("gate accepted a tampered result: failed=%d problems=%v", tampered.failed, tampered.problems)
	}
}

func TestTrackGateRejectsTamperedEvals(t *testing.T) {
	o := options{seed: 3, clipFrames: 100, clips: 1}
	p := &trackPhase{heap: newHeapPeak(), acc: metrics.NewAccumulator("edgeIS")}
	clips := trackClips(o)
	for n := 0; n < 2*len(clips); n++ {
		p.runClip(clips, n%len(clips), o.seed)
	}
	clean := &outcome{}
	checkDigests(clean, "repeat", p.digests[0], p.digests[1:])
	if len(clean.problems) != 0 {
		t.Fatalf("identical passes failed the gate: %v", clean.problems)
	}

	r := newClipRun(clips[0], engineSeed(o.seed, 0), nil, newHeapPeak())
	evals, st := r.eng.Run()
	for i := range evals {
		if len(evals[i].IoUs) > 0 {
			evals[i].IoUs[0] += 0.01
			break
		}
	}
	tampered := &outcome{}
	checkDigests(tampered, "tampered", p.digests[0], [][]uint64{{evalDigest(evals, st)}})
	if len(tampered.problems) == 0 {
		t.Fatal("gate accepted a tampered per-frame eval")
	}
}

// TestDecoratorsForwardOptionalInterfaces runs strategies that use the
// optional engine interfaces against the loopback backend, whose queue only
// drains through NoteDelivered: decorated and bare runs must agree.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	cam := benchCamera()
	clip := dataset.All(9, 120)[1]
	strategies := map[string]func() pipeline.Strategy{
		"edgeIS":      func() pipeline.Strategy { return core.NewSystem(core.Config{Camera: cam, Seed: 9}) },
		"best-effort": func() pipeline.Strategy { return baseline.NewBestEffort(cam, device.IPhone11) },
	}
	for name, mk := range strategies {
		digest := func(decorate bool) uint64 {
			var backend pipeline.EdgeBackend = pipeline.NewLoopbackBackend(segmodel.New(segmodel.MaskRCNN), 1, 9)
			strat := mk()
			if decorate {
				tr := newTracer()
				backend = &tracedBackend{EdgeBackend: backend, tr: tr}
				strat = &timedStrategy{inner: strat, tr: tr}
			}
			eng := pipeline.NewEngine(pipeline.Config{
				World: clip.World, Camera: cam, Trajectory: clip.Traj, Frames: clip.Frames,
				CameraSpeed: clip.CameraSpeed, Medium: netsim.WiFi5, Seed: 9, Backend: backend,
			}, strat)
			return evalDigest(eng.Run())
		}
		if bare, dec := digest(false), digest(true); bare != dec {
			t.Errorf("%s: decorated run digest %016x, bare %016x", name, dec, bare)
		}
	}
	if got := (&timedStrategy{inner: baseline.NewBestEffort(cam, device.IPhone11)}).PreferredQueueDepth(); got <= 1 {
		t.Errorf("PreferredQueueDepth not forwarded: %d", got)
	}
	if !(&timedStrategy{inner: core.NewSystem(core.Config{Camera: cam})}).AwaitingEdgeResult() {
		t.Error("AwaitingEdgeResult not forwarded: a fresh system awaits its initialization masks")
	}
}
