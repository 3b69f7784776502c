// Command perfbench is the repository's end-to-end benchmark. It
// drives a fresh uwm-gateway → uwm-serve pair, both at default flags,
// with a closed loop of two clients, checks every answer against the
// benchmark's own reference, and reports host-time metrics. With
// --trace 1 it instead reports per-layer metrics: a traced run through
// a timing relay, plus replays of the same inputs by direct calls into
// the layers below the engine.
//
// It is normally started through run.sh, which builds the binaries:
//
//	bash perfbench/run.sh --workload gate-mix --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 45 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads and the layer → metric → workload map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is kept out of tuning; a later performance claim is
// confirmed on it.
const heldOutSeed = 9001

// runBudget bounds one workload's run, well inside the three minutes
// a run may take.
const runBudget = 170 * time.Second

// metricDef names a reported metric; README.md defines each one.
type metricDef struct {
	name, unit string
}

// endToEnd are the --trace 0 metrics, in report order.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"gate_ops_per_s", "1/s"},
	{"accuracy", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the --trace 1 metrics, bottom-up within each layer
// group as README.md lists them.
var perLayer = []metricDef{
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.cache_hit_ratio", "ratio"},
	{"cluster.collapsed", "count"},
	{"httpapi.overhead_ms_p50", "ms"},
	{"httpapi.response_bytes_mean", "B"},
	{"engine.queue_ms_p50", "ms"},
	{"engine.queue_ms_tail", "ms"},
	{"engine.exec_ms_p50", "ms"},
	{"engine.attempts_per_job", "attempts/job"},
	{"engine.vote_disagreements", "count/job"},
	{"flightrec.kept_per_job", "traces/job"},
	{"flightrec.dropped_events_per_job", "events/job"},
	{"circopt.compile_ms", "ms"},
	{"circopt.plan_cache_hit_ratio", "ratio"},
	{"circopt.eval_us_per_gate", "us"},
	{"circopt.gates_out", "count"},
	{"sha1wm.block_ms", "ms"},
	{"sha1wm.gate_ops_per_block", "count"},
	{"skelly.op_us", "us"},
	{"skelly.activations_per_op", "ratio"},
	{"core.bp_activation_us", "us"},
	{"core.tsx_activation_us", "us"},
	{"core.allocs_per_activation", "count"},
	{"cpu.ns_per_uop", "ns"},
	{"cpu.uops_per_activation", "count"},
	{"cpu.tx_aborts_per_activation", "count"},
	{"cache.accesses_per_activation", "count"},
	{"cache.l1i_miss_ratio", "ratio"},
	{"cache.fetch_ns", "ns"},
	{"branch.mispredicts_per_activation", "count"},
	{"branch.predict_ns", "ns"},
	{"trace.untraced_jobs_per_s", "1/s"},
	{"trace.traced_jobs_per_s", "1/s"},
	{"trace.jobs_per_s_ratio", "ratio"},
}

// value is one reported metric with its sample count.
type value struct {
	v    float64
	n    int
	note string
}

// report is one workload's outcome.
type report struct {
	workload  string
	why       string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]value
	defs      []metricDef
	problems  []string
	lines     []string // extra report lines (digests, files, phases)
}

type config struct {
	root, binDir, outDir string
	seed                 uint64
	seconds              time.Duration
	traced               bool
	ident                identity
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fs.Uint64("seed", 1, fmt.Sprintf("workload seed; %d is held out for confirming claims", heldOutSeed))
	seconds := fs.Int("seconds", 45, "how long the closed loop keeps sending (in-flight jobs then finish)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and layer replays")
	root := fs.String("root", ".", "repository checkout the binaries were built from")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding uwm-serve and uwm-gateway")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for logs, span files and per-seed records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var run []*workload
	if *workloadName == "all" {
		run = workloads
	} else if w, ok := workloadByName(*workloadName); ok {
		run = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want %s or all)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	for _, b := range []string{"uwm-serve", "uwm-gateway"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build with run.sh)\n", err)
			return 2
		}
	}
	cfg := config{root: *root, binDir: *binDir, outDir: *outDir, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	cfg.ident = hostIdentity(cfg.root, cfg.binDir)

	var reports []*report
	for _, w := range run {
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		rep, err := runWorkload(ctx, cfg, w)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, cfg, rep)
		reports = append(reports, rep)
	}
	return printResult(stdout, reports)
}

// printResult writes the final JSON line and returns the exit code.
func printResult(w io.Writer, reports []*report) int {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rep := range reports {
		out.Correct = out.Correct && rep.correct
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		for _, d := range rep.defs {
			key := d.name
			if len(reports) > 1 {
				key = rep.workload + "/" + d.name
			}
			out.Metrics[key] = jsonMetric{Value: rep.metrics[d.name].v, Unit: d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, cfg config, rep *report) {
	mode := "end-to-end (untraced)"
	if cfg.traced {
		mode = "per-layer (traced run + layer replays)"
	}
	fmt.Fprintf(w, "== perfbench %s: seed %d, %s closed loop with %d clients, %s\n",
		rep.workload, cfg.seed, cfg.seconds, clients, mode)
	fmt.Fprintf(w, "why: %s\n", rep.why)
	id := cfg.ident
	fmt.Fprintf(w, "host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", id.CPUModel, id.NProc, id.GOMAXPROCS, id.GoVersion)
	fmt.Fprintf(w, "code: git %s, source sha256 %s\n", id.GitSHA, id.SourceSHA256)
	fmt.Fprintf(w, "uwm-serve %s; flags %s (all others default)\n", id.Serve, strings.Join(id.ServeFlags, " "))
	fmt.Fprintf(w, "uwm-gateway %s; flags %s (all others default)\n", id.Gateway, strings.Join(id.GatewayFlags, " "))
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range rep.defs {
		m := rep.metrics[d.name]
		note := m.note
		if note != "" {
			note = ", " + note
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-12s n=%d%s\n", d.name, m.v, d.unit, m.n, note)
	}
	verdict := "correct"
	if !rep.correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "verdict: %s (%d attempted, %d failed)\n", verdict, rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

func runWorkload(ctx context.Context, cfg config, w *workload) (*report, error) {
	runDir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, btoi(cfg.traced)))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, why: w.why, metrics: map[string]value{}}
	if cfg.traced {
		return rep, runTraced(ctx, cfg, w, runDir, rep)
	}
	return rep, runUntraced(ctx, cfg, w, runDir, rep)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setUp launches a fresh stack and runs the warm-up: one circuit job
// per preset through the gateway, with seeds outside the workload's
// set, so each preset is compiled once before measuring.
func setUp(ctx context.Context, cfg config, gen *generator, dir string, traced bool) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := startStack(ctx, cfg.binDir, dir, traced)
	if err != nil {
		return nil, 0, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	for j, p := range circuitPresets {
		body := fmt.Sprintf(`{"type":"circuit","params":{"circuit":%q,"random":1},"seed":%d,"wait":true}`,
			p.name, gen.warmupSeed(j))
		if err := warmUp(ctx, client, st.gatewayURL, body); err != nil {
			st.stop()
			return nil, 0, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	return st, time.Since(start), nil
}

func warmUp(ctx context.Context, client *http.Client, gatewayURL, body string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, gatewayURL+"/v1/jobs?wait=1", strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || env.Status != "done" {
		return fmt.Errorf("HTTP %d, job %s %s", resp.StatusCode, env.Status, env.Error)
	}
	return nil
}

// runUntraced is the --trace 0 run: set up and measure w.stacks fresh
// stacks in turn, each for an equal share of the seconds and each
// running the workload's request sequence from its start. How fast a
// stack turns out varies from launch to launch on a shared host;
// medians over several launches do not follow one unlucky launch. The
// host is probed before each stack and after the last; the mean of the
// two probes around a stack gives the host's slowness for that stack.
func runUntraced(ctx context.Context, cfg config, w *workload, dir string, rep *report) error {
	var setups, setupsRef, rss, probes sample
	var slow []float64
	var runs []*loadRun
	share := cfg.seconds / time.Duration(w.stacks)
	probes = append(probes, hostProbe(probeTime))
	for k := 0; k < w.stacks; k++ {
		gen := newGenerator(w, cfg.seed)
		st, d, err := setUp(ctx, cfg, gen, filepath.Join(dir, fmt.Sprintf("stack%d", k)), false)
		if err != nil {
			return err
		}
		var mb float64
		var rssErr error
		rssRead := false
		run := runLoad(ctx, st.gatewayURL, gen, share, fmt.Sprintf("%s-%d-u%d", w.name, cfg.seed, k), func(answered int) {
			if answered == w.rssAt {
				mb, rssErr = st.peakRSSMB()
				rssRead = true
			}
		})
		if !rssRead {
			// A host too slow to reach rssAt in the stack's share: read
			// at the end instead, and say so in the report.
			mb, rssErr = st.peakRSSMB()
			rep.lines = append(rep.lines, fmt.Sprintf("stack %d: peak_rss_mb read at its end, after %d answers (fewer than %d)",
				k, len(run.results), w.rssAt))
		}
		if err := errors.Join(rssErr, st.stop()); err != nil {
			return err
		}
		probes = append(probes, hostProbe(probeTime))
		runs = append(runs, run)
		rss = append(rss, mb)
		slow = append(slow, slowness(probes[k], probes[k+1]))
		setups = append(setups, d.Seconds())
		setupsRef = append(setupsRef, d.Seconds()/slow[k])
	}
	s := summarize(runs, slow, w)
	ref := s.ref
	scaled := fmt.Sprintf("median of %d windows of %.3g s, scaled to the reference host", len(s.windows), s.window.Seconds())
	rep.defs = endToEnd
	rep.attempted, rep.failed = s.attempted, s.failed
	rep.metrics["jobs_per_s"] = value{v: ref.jobsPerS, n: s.measuredJobs,
		note: fmt.Sprintf("%s; as measured %.6g", scaled, s.raw.jobsPerS)}
	rep.metrics["latency_p50_ms"] = value{v: ref.p50, n: s.measuredJobs,
		note: fmt.Sprintf("%s; as measured %.6g", scaled, s.raw.p50)}
	rep.metrics["latency_tail_ms"] = value{v: ref.tail, n: s.measuredJobs,
		note: fmt.Sprintf("%s; as measured %.6g; each window's %s, the median window's with %d samples beyond",
			scaled, s.raw.tail, percentileLabel(s.tailPct, s.tailBeyond), s.tailBeyond)}
	rep.metrics["gate_ops_per_s"] = value{v: ref.gateOpsPerS, n: s.measuredJobs,
		note: fmt.Sprintf("%s; as measured %.6g", scaled, s.raw.gateOpsPerS)}
	rep.metrics["accuracy"] = value{v: s.accuracy(), n: s.total,
		note: fmt.Sprintf("%d of %d outputs correct", s.correct, s.total)}
	rep.metrics["setup_s"] = value{v: setupsRef.median(), n: len(setups),
		note: fmt.Sprintf("median of %d set-ups, scaled to the reference host; as measured %s", len(setups), fmtSample(setups))}
	rep.metrics["peak_rss_mb"] = value{v: rss.median(), n: len(rss),
		note: fmt.Sprintf("median of %d stacks %s, each read at answer %d", len(rss), fmtSample(rss), w.rssAt)}
	rep.lines = append(rep.lines, fmt.Sprintf("host probe %s ms before each stack and after the last; reference host %.3g ms",
		fmtSample(probes), probeRefMs))
	rep.lines = append(rep.lines, windowLines(s)...)
	rep.lines = append(rep.lines, classLine(runs))
	rep.lines = append(rep.lines, fmt.Sprintf("fail_frac %.6g (%d of %d requests failed)",
		ratio(float64(s.failed), float64(s.attempted)), s.failed, s.attempted))
	rep.problems = append(rep.problems, s.failures...)
	hashes, problems := mergeHashes(runs)
	if len(problems) > 0 {
		path := filepath.Join(dir, "disagreements.jsonl")
		if err := writeDisagreements(path, runs); err != nil {
			return err
		}
		problems = append(problems, "every stack's result for those requests is in "+path)
	}
	digestLine, recordProblems, err := determinism(cfg, w, hashes, nil)
	if err != nil {
		return err
	}
	problems = append(problems, recordProblems...)
	rep.lines = append(rep.lines, digestLine)
	rep.problems = append(rep.problems, problems...)
	rep.correct = s.failed == 0 && len(problems) == 0
	return nil
}

// determinism prints the run's sim_digest and checks the run against
// earlier runs with the same seed.
func determinism(cfg config, w *workload, hashes []string, exact map[string]uint64) (string, []string, error) {
	n := min(w.digestPrefix, len(hashes))
	line := fmt.Sprintf("sim_digest %s over the voted results of requests 0..%d", simDigest(hashes[:n]), n-1)
	// Records are per (workload, seed) and outlive source changes, so a
	// later commit is checked against its parent's results. A change
	// that really alters the simulated model deletes the records
	// directory and says so.
	name := fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed)
	problems, err := checkRecord(filepath.Join(cfg.outDir, "records", name), hashes, exact)
	for i := range problems {
		problems[i] = "differs from an earlier run with this seed: " + problems[i]
	}
	return line, problems, err
}

func simDigest(hashes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(hashes, "\n")))
	return hex.EncodeToString(sum[:])
}

// windowLines lists every window's figures as measured, so a report
// shows whether the host slowed down during part of the run.
func windowLines(s e2e) []string {
	var jobs, p50, tail sample
	for _, ws := range s.windows {
		jobs = append(jobs, ws.jobsPerS)
		p50 = append(p50, ws.p50)
		tail = append(tail, ws.tail)
	}
	return []string{
		"window jobs_per_s " + fmtSample(jobs),
		"window latency_p50_ms " + fmtSample(p50),
		"window latency_tail_ms " + fmtSample(tail),
	}
}

// classLine gives the latency median of each kind of request (gate or
// preset, and how the gateway answered), to show where the overall
// median falls.
func classLine(runs []*loadRun) string {
	by := map[string]sample{}
	for _, run := range runs {
		for _, r := range run.results {
			if r.err != nil {
				continue
			}
			k := r.req.Gate + r.req.Preset
			if r.xcache != "" && r.xcache != "miss" {
				k += "/" + r.xcache
			}
			by[k] = append(by[k], ms(r.latency()))
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.3g (n=%d)", k, by[k].median(), len(by[k]))
	}
	return "latency_p50_ms by request kind: " + strings.Join(parts, ", ")
}

func fmtSample(s sample) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
