package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the --trace 1 run. The closed loop runs twice on fresh
// stacks for half the seconds each: untraced, as the base of the
// tracing-overhead ratio, then through the timing relay. The host is
// probed before, between and after, and each half's rate is scaled by
// the two probes around it. Then the
// workload's leading requests are replayed below the engine, twice on
// fresh machines, and the exact counts of the two replays must agree.
func runTraced(ctx context.Context, cfg config, w *workload, dir string, rep *report) error {
	gen := newGenerator(w, cfg.seed)
	half := cfg.seconds / 2
	tag := fmt.Sprintf("%s-%d", w.name, cfg.seed)

	probes := sample{hostProbe(probeTime)}
	st, _, err := setUp(ctx, cfg, gen, filepath.Join(dir, "untraced"), false)
	if err != nil {
		return err
	}
	baseRun := runLoad(ctx, st.gatewayURL, gen, half, tag+"-b", nil)
	if err := st.stop(); err != nil {
		return err
	}
	probes = append(probes, hostProbe(probeTime))

	if st, _, err = setUp(ctx, cfg, gen, filepath.Join(dir, "traced"), true); err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	metricsURL := "http://" + st.serveAddr + "/metrics"
	before, beforeErr := scrape(client, metricsURL)
	run := runLoad(ctx, st.gatewayURL, gen, half, tag+"-t", nil)
	after, afterErr := scrape(client, metricsURL)
	if err := errors.Join(beforeErr, afterErr, st.stop()); err != nil {
		return err
	}
	probes = append(probes, hostProbe(probeTime))

	base := summarize([]*loadRun{baseRun}, []float64{slowness(probes[0], probes[1])}, w)
	traced := summarize([]*loadRun{run}, []float64{slowness(probes[1], probes[2])}, w)
	baseRef, tracedRef := base.ref, traced.ref
	rep.defs = perLayer
	rep.attempted = base.attempted + traced.attempted
	rep.failed = base.failed + traced.failed
	rep.problems = append(append(rep.problems, base.failures...), traced.failures...)
	for _, d := range perLayer {
		rep.metrics[d.name] = value{} // a layer with no work on this workload reports 0
	}

	spans := &spanLog{}
	servingLayers(rep, run, st.relay, spans, before, after)
	scaled := func(s e2e) string {
		return fmt.Sprintf("median of %d windows, scaled to the reference host; as measured %.6g",
			len(s.windows), s.raw.jobsPerS)
	}
	rep.metrics["trace.untraced_jobs_per_s"] = value{v: baseRef.jobsPerS, n: base.measuredJobs, note: scaled(base)}
	rep.metrics["trace.traced_jobs_per_s"] = value{v: tracedRef.jobsPerS, n: traced.measuredJobs, note: scaled(traced)}
	rep.metrics["trace.jobs_per_s_ratio"] = value{v: ratio(tracedRef.jobsPerS, baseRef.jobsPerS), n: 2,
		note: fmt.Sprintf("base %.6g jobs/s untraced; host probe %s ms", baseRef.jobsPerS, fmtSample(probes))}

	var passes [2]*layerReport
	for p := range passes {
		start := time.Now()
		root := spans.add(0, fmt.Sprintf("replay.%s.pass%d", w.name, p+1), start, start, "replay", "")
		if passes[p], err = replay(w, gen, spans, root); err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
		spans.spans[root-1].end = time.Now()
	}
	for k, v := range passes[0].metrics {
		rep.metrics[k] = v
	}
	drift := exactDrift(passes[0].exact, passes[1].exact)
	var problems []string
	for _, d := range drift {
		problems = append(problems, "exact count drifted between two replays: "+d)
	}
	for _, d := range compareHashes(resultHashes(baseRun), resultHashes(run)) {
		problems = append(problems, "untraced and traced halves disagree: "+d)
	}
	digestLine, recordProblems, err := determinism(cfg, w, resultHashes(run), passes[0].exact)
	if err != nil {
		return err
	}
	problems = append(problems, recordProblems...)
	rep.problems = append(rep.problems, problems...)
	rep.lines = append(rep.lines, digestLine, fmt.Sprintf("exact counts (two replays agree: %v): %v",
		len(drift) == 0, passes[0].exact))

	jsonl, chrome := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "spans.trace.json")
	if err := errors.Join(spans.writeJSONL(jsonl), spans.writeChrome(chrome)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.lines = append(rep.lines, fmt.Sprintf("spans: %d written to %s (uwm-trace profile) and %s (chrome://tracing)",
		len(spans.spans), jsonl, chrome))
	rep.correct = rep.failed == 0 && len(problems) == 0
	return nil
}

// servingLayers computes the cluster, httpapi, engine, flightrec and
// plan-cache metrics of the traced half, and records each request's
// spans.
func servingLayers(rep *report, run *loadRun, rl *relay, spans *spanLog, before, after promText) {
	var hop, overhead, queue, exec, bytes sample
	hits, collapsed, attempts, disagreements := 0, 0, 0, 0
	for _, r := range run.results {
		switch r.xcache {
		case "hit":
			hits++
		case "collapsed":
			collapsed++
		}
		be, ok := rl.span(r.requestID)
		spans.requestSpans(r, be, ok)
		if !ok || r.err != nil {
			continue
		}
		backend := be.end.Sub(be.start)
		hop = append(hop, ms(r.latency()-backend))
		overhead = append(overhead, ms(backend-r.finished.Sub(r.submitted)))
		queue = append(queue, ms(r.started.Sub(r.submitted)))
		exec = append(exec, ms(r.finished.Sub(r.started)))
		bytes = append(bytes, float64(be.bytes))
		attempts += r.attempts
		if r.ballots > 1 {
			disagreements += r.ballots - 1
		}
	}
	n, jobs := len(run.results), len(exec)
	rep.metrics["cluster.hop_ms_p50"] = value{v: hop.median(), n: len(hop)}
	rep.metrics["cluster.cache_hit_ratio"] = value{v: ratio(float64(hits), float64(n)), n: n,
		note: fmt.Sprintf("%d hits", hits)}
	rep.metrics["cluster.collapsed"] = value{v: float64(collapsed), n: n}
	rep.metrics["httpapi.overhead_ms_p50"] = value{v: overhead.median(), n: len(overhead)}
	rep.metrics["httpapi.response_bytes_mean"] = value{v: bytes.mean(), n: len(bytes)}
	rep.metrics["engine.queue_ms_p50"] = value{v: queue.median(), n: jobs}
	qt, qp, qb := queue.tail()
	rep.metrics["engine.queue_ms_tail"] = value{v: qt, n: jobs,
		note: fmt.Sprintf("%s, %d samples beyond", percentileLabel(qp, qb), qb)}
	rep.metrics["engine.exec_ms_p50"] = value{v: exec.median(), n: jobs}
	rep.metrics["engine.attempts_per_job"] = value{v: ratio(float64(attempts), float64(jobs)), n: jobs}
	rep.metrics["engine.vote_disagreements"] = value{v: ratio(float64(disagreements), float64(jobs)), n: jobs,
		note: fmt.Sprintf("%d in total", disagreements)}

	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	served := delta("uwm_engine_jobs_total")
	kept := delta("uwm_flightrec_decisions_total", `decision="kept"`)
	rep.metrics["flightrec.kept_per_job"] = value{v: ratio(kept, served), n: int(served)}
	rep.metrics["flightrec.dropped_events_per_job"] = value{v: ratio(delta("uwm_trace_dropped_events_total"), served),
		n: int(served)}
	planHits, planMisses := delta("uwm_circopt_plan_cache_hits_total"), delta("uwm_circopt_plan_cache_misses_total")
	rep.metrics["circopt.plan_cache_hit_ratio"] = value{v: ratio(planHits, planHits+planMisses), n: int(planHits + planMisses)}
}
