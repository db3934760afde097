// Command edgeis-loadgen runs the fleet-scale serving load harness
// (internal/loadgen) and writes machine-readable SLO reports.
//
// Three targets share one profile vocabulary:
//
//   - sim: the deterministic virtual-time simulator. Two runs of the same
//     profile produce byte-identical reports; this is what the committed
//     BENCH_serving.json pins.
//   - scheduler: wall-clock fleet against a real in-process edge.Scheduler.
//   - tcp: wall-clock fleet of transport.Clients over loopback sockets
//     against a transport.Server (or -addr for an external edgeis-server).
//
// The committed BENCH_serving.json at the repo root is `-suite` output —
// every named profile on the simulator plus the tcp-smoke profile over real
// sockets. Refresh it with
//
//	go run ./cmd/edgeis-loadgen -suite -out BENCH_serving.json
//
// (or `make servingbench`). `-check` replays each simulator run twice and
// fails on any byte difference — the determinism gate CI runs. See
// DESIGN.md §14 for how to read the reports.
//
// Sharded profiles (ci-smoke-fleet, fleet-3x, fleet-3x-kill1) run the edge
// as a fleet of replicas with rendezvous session placement; every target
// honours the shard count and the replica failure schedule. -replicas and
// -kill-at (replica@ms, comma-separated) override both on any profile, so
// one command can answer "what does this workload look like on 3 replicas
// if one dies mid-run". See DESIGN.md §18 for the fleet semantics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/loadgen"
	"edgeis/internal/loadgen/drive"
)

// report is the file schema of BENCH_serving.json.
type report struct {
	GoVersion string         `json:"go_version"`
	GOARCH    string         `json:"goarch"`
	Results   []*loadgen.SLO `json:"results"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		target    = flag.String("target", "sim", "execution target: sim, scheduler or tcp")
		profile   = flag.String("profile", "", "named profile to run (see -list); empty with -suite runs the committed set")
		list      = flag.Bool("list", false, "list the named profiles and exit")
		suite     = flag.Bool("suite", false, "run every profile on the simulator plus tcp-smoke over sockets")
		check     = flag.Bool("check", false, "run each simulator profile twice and fail unless reports are byte-identical")
		out       = flag.String("out", "-", "output file (- for stdout)")
		timescale = flag.Float64("timescale", 1, "wall targets: wall ms per virtual ms of the generation schedule")
		occupancy = flag.Float64("occupancy", drive.DefaultOccupancy, "wall targets: accelerator hold time as a fraction of nominal inference latency")
		drain     = flag.Duration("drain", drive.DefaultDrainTimeout, "tcp target: in-flight drain deadline after the horizon")
		addr      = flag.String("addr", "", "tcp target: external server address (empty starts one in-process)")
		maxBatch  = flag.Int("max-batch", 0, "override the profile's max frames per accelerator launch (0 = profile value)")
		batchWin  = flag.Float64("batch-window", -1, "override the profile's gather window in virtual ms (-1 = profile value)")
		shedPol   = flag.String("shed-policy", "", "override the profile's admission policy: reject or latest-wins (empty = profile value)")
		keyframe  = flag.Int("keyframe-interval", 0, "override the profile's keyframe interval; N > 1 enables the skip-compute feature cache (0 = profile value)")
		skip      = flag.Bool("skip-compute", false, "shorthand for -keyframe-interval 4 on profiles that leave it unset")
		replicas  = flag.Int("replicas", 0, "override the profile's edge replica count; N > 1 shards the edge into a fleet (0 = profile value)")
		killAt    = flag.String("kill-at", "", "replica failure schedule as replica@ms[,replica@ms...], e.g. 1@7500 (replaces the profile's; needs a sharded profile or -replicas)")
	)
	flag.Parse()

	kills, err := parseKills(*killAt)
	if err != nil {
		return err
	}
	if _, err := edge.AdmissionPolicyByName(*shedPol); err != nil {
		return err
	}

	// Policy overrides let one command A/B a profile against the batch
	// former, latest-wins or the skip-compute feature cache without
	// defining a new named arm.
	override := func(p loadgen.Profile) loadgen.Profile {
		if *maxBatch > 0 {
			p.MaxBatch = *maxBatch
		}
		if *batchWin >= 0 {
			p.BatchWindowMs = *batchWin
		}
		if *shedPol != "" {
			p.ShedPolicy = *shedPol
		}
		if *keyframe > 0 {
			p.KeyframeInterval = *keyframe
		} else if *skip && p.KeyframeInterval == 0 {
			p.KeyframeInterval = 4
		}
		if *replicas > 0 {
			p.Replicas = *replicas
		}
		if kills != nil {
			p.Kills = kills
		}
		return p
	}

	if *list {
		for _, p := range loadgen.Profiles() {
			p = p.Normalized()
			fleet := ""
			if p.Sharded() {
				fleet = fmt.Sprintf("  x%d replicas", p.Replicas)
				if len(p.Kills) > 0 {
					fleet += fmt.Sprintf(", %d kill(s)", len(p.Kills))
				}
			}
			fmt.Printf("%-20s %5d sessions %2d accel queue %3d  %6.1fs @ %.1f fps  %s%s\n",
				p.Name, p.Sessions, p.Accelerators, p.QueueDepth, p.DurationMs/1000, p.FPS, p.Arrival, fleet)
		}
		return nil
	}

	opts := drive.Options{TimeScale: *timescale, Occupancy: *occupancy, DrainTimeout: *drain, Addr: *addr}
	rep := report{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}

	var profiles []loadgen.Profile
	if *profile != "" {
		p, err := loadgen.ProfileByName(*profile)
		if err != nil {
			return err
		}
		profiles = []loadgen.Profile{p}
	} else if *suite || *check {
		profiles = loadgen.Profiles()
	} else {
		return fmt.Errorf("edgeis-loadgen: pick -profile <name>, -suite or -list")
	}

	for _, p := range profiles {
		tgt := *target
		if *suite {
			tgt = "sim"
		}
		slo, err := runOne(tgt, override(p), opts, *check)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, slo)
		fmt.Fprintln(os.Stderr, slo)
	}
	// The suite ends with the smoke profile on real sockets, so the
	// committed report carries one wall-clock row next to the pinned ones.
	if *suite {
		p, err := loadgen.ProfileByName("tcp-smoke")
		if err != nil {
			return err
		}
		start := time.Now() //edgeis:wallclock timing a real socket run for the progress line
		slo, err := drive.RunTCP(override(p), opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start) //edgeis:wallclock timing a real socket run for the progress line
		fmt.Fprintf(os.Stderr, "%s (%.1fs wall)\n", slo, elapsed.Seconds())
		rep.Results = append(rep.Results, slo)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// parseKills decodes the -kill-at schedule: comma-separated replica@ms
// entries. An empty flag returns nil, which keeps the profile's own
// schedule; a non-empty flag replaces it wholesale.
func parseKills(spec string) ([]loadgen.ReplicaKill, error) {
	if spec == "" {
		return nil, nil
	}
	var kills []loadgen.ReplicaKill
	for _, entry := range strings.Split(spec, ",") {
		replica, at, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: want replica@ms", entry)
		}
		r, err := strconv.Atoi(replica)
		if err != nil {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: bad replica: %v", entry, err)
		}
		ms, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: bad time: %v", entry, err)
		}
		kills = append(kills, loadgen.ReplicaKill{Replica: r, AtMs: ms})
	}
	return kills, nil
}

// runOne executes one profile on one target; with check set, simulator runs
// execute twice and must agree byte for byte.
func runOne(target string, p loadgen.Profile, opts drive.Options, check bool) (*loadgen.SLO, error) {
	var slo *loadgen.SLO
	var err error
	switch target {
	case "sim":
		slo = loadgen.Run(p)
		if check {
			a, _ := json.Marshal(slo)
			b, _ := json.Marshal(loadgen.Run(p))
			if string(a) != string(b) {
				return nil, fmt.Errorf("edgeis-loadgen: %s: two simulator runs differ:\n%s\n%s", p.Name, a, b)
			}
		}
	case "scheduler":
		slo, err = drive.RunScheduler(p, opts)
	case "tcp":
		slo, err = drive.RunTCP(p, opts)
	default:
		return nil, fmt.Errorf("edgeis-loadgen: unknown target %q (want sim, scheduler or tcp)", target)
	}
	if err != nil {
		return nil, err
	}
	if err := slo.Check(); err != nil {
		return nil, err
	}
	return slo, nil
}
