package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"uwm/internal/cache"
	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/engine"
	"uwm/internal/health"
	"uwm/internal/mem"
	"uwm/internal/noise"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/trace"
)

// The replays run on a machine built the way a uwm-serve worker
// builds its own at default flags: root seed 2021 (-seed), 4 BP
// training iterations (-train), the engine's default noise profile
// and its default gate-library redundancy.
const (
	serveSeed  = 2021
	serveTrain = 4
)

var serveSkelly = skelly.Config{S: 3, K: 1, N: 1, Verify: true}

// Replay sizes: how many of the workload's leading requests each
// replay re-executes below the engine.
const (
	gateReplayJobs    = 256 // 4096 gate activations
	circuitReplayJobs = 4   // non-repeat circuit jobs
	bpSampleOps       = 256 // direct BP activations on sha1 and circuit-reuse
	microOps          = 1 << 18
	microReps         = 5
)

// readCounter counts timed output reads, one per gate output per
// activation; every gate the workloads use has one output, so it
// counts activations.
type readCounter struct{ n uint64 }

func (c *readCounter) Emit(e trace.Event) {
	if e.Kind == trace.KindTimedRead {
		c.n++
	}
}

// replayRig mirrors engine.Rig: one machine, its gate library, the
// TSX gates, built in the worker's order so the address layout is the
// same.
type replayRig struct {
	m     *core.Machine
	sk    *skelly.Skelly
	tsx   map[string]*core.TSXGate
	reads *readCounter
}

func newReplayRig() (*replayRig, error) {
	reads := &readCounter{}
	m, err := core.NewMachine(core.Options{
		Seed:            serveSeed,
		Noise:           engine.DefaultNoise(),
		TrainIterations: serveTrain,
		HealthTap:       trace.Tee(health.NewMonitor(health.Config{}), reads),
	})
	if err != nil {
		return nil, err
	}
	sk, err := skelly.New(m, serveSkelly)
	if err != nil {
		return nil, err
	}
	r := &replayRig{m: m, sk: sk, tsx: map[string]*core.TSXGate{}, reads: reads}
	for _, build := range []func(*core.Machine) (*core.TSXGate, error){
		core.NewTSXAnd, core.NewTSXOr, core.NewTSXXor, core.NewTSXAssign,
	} {
		g, err := build(m)
		if err != nil {
			return nil, err
		}
		r.tsx[g.Name()] = g
	}
	if _, err := core.NewDCWR(m); err != nil {
		return nil, err
	}
	return r, nil
}

// counts are the simulator's own counters at one instant.
type counts struct {
	uops, aborts, mispredicts   uint64
	cacheAccesses               uint64
	l1iAccesses, l1iMisses      uint64
	activations, gateOps, alloc uint64
}

func (r *replayRig) counts() counts {
	st := r.m.CPU().Stats()
	h := r.m.CPU().Hierarchy()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counts{
		uops:        st.Committed + st.SpecInsts,
		aborts:      st.TxAborts,
		mispredicts: st.Mispredicts,
		activations: r.reads.n,
		gateOps:     r.sk.TotalGateOps(),
		alloc:       ms.Mallocs,
	}
	for _, lvl := range []*cache.Cache{h.L1D(), h.L1I(), h.L2()} {
		s := lvl.Stats()
		c.cacheAccesses += s.Hits + s.Misses
	}
	l1i := h.L1I().Stats()
	c.l1iAccesses, c.l1iMisses = l1i.Hits+l1i.Misses, l1i.Misses
	return c
}

func (a counts) sub(b counts) counts {
	return counts{
		uops: a.uops - b.uops, aborts: a.aborts - b.aborts, mispredicts: a.mispredicts - b.mispredicts,
		cacheAccesses: a.cacheAccesses - b.cacheAccesses,
		l1iAccesses:   a.l1iAccesses - b.l1iAccesses, l1iMisses: a.l1iMisses - b.l1iMisses,
		activations: a.activations - b.activations, gateOps: a.gateOps - b.gateOps, alloc: a.alloc - b.alloc,
	}
}

// rung is one timed call sequence into a layer, with the counter
// deltas it caused.
type rung struct {
	start, end time.Time
	d          counts
}

func (g rung) dur() time.Duration { return g.end.Sub(g.start) }

func (r *replayRig) measure(fn func() error) (rung, error) {
	before := r.counts()
	g := rung{start: time.Now()}
	err := fn()
	g.end = time.Now()
	g.d = r.counts().sub(before)
	return g, err
}

// timedLib is a circopt.GateLib that times every call into
// (*skelly.Skelly).GateOp.
type timedLib struct {
	sk    *skelly.Skelly
	calls int
	spent time.Duration
}

func (t *timedLib) GateOp(op core.CircuitOp, a, b int) (int, error) {
	start := time.Now()
	v, err := t.sk.GateOp(op, a, b)
	t.spent += time.Since(start)
	t.calls++
	return v, err
}

func (t *timedLib) Machine() *core.Machine { return t.sk.Machine() }

// layerReport is what one replay pass measured.
type layerReport struct {
	metrics map[string]value
	// exact are the counts that must repeat exactly under one seed.
	exact map[string]uint64
}

func (r *layerReport) set(name string, v float64, n int) { r.metrics[name] = value{v: v, n: n} }

// replay re-executes the workload's leading requests by direct calls
// into the layers below the engine, on a fresh machine, and records a
// span per call sequence under parent.
func replay(w *workload, gen *generator, spans *spanLog, parent int) (*layerReport, error) {
	rig, err := newReplayRig()
	if err != nil {
		return nil, fmt.Errorf("building replay machine: %w", err)
	}
	rep := &layerReport{metrics: map[string]value{}, exact: map[string]uint64{}}
	var top rung
	switch w {
	case gateMix:
		top, err = replayGates(rig, gen, rep, spans, parent)
	case sha1Workload:
		top, err = replaySHA1(rig, gen, rep, spans, parent)
	case circuitReuse:
		// sha1 is not a bounded workload (see README.md), so the
		// sha1wm rung is measured here on the sha1 workload's first
		// message for the same seed.
		top, err = replayCircuits(rig, gen, rep, spans, parent)
		if err == nil {
			_, err = replayBlock(rig, newGenerator(sha1Workload, gen.seed).get(0), rep, spans, parent)
		}
	default:
		err = fmt.Errorf("no replay for workload %s", w.name)
	}
	if err != nil {
		return nil, err
	}
	d := top.d
	acts, n := float64(d.activations), int(d.activations)
	if d.activations == 0 || d.uops == 0 {
		return nil, fmt.Errorf("replay of %s ran no gate activations", w.name)
	}
	rep.set("core.allocs_per_activation", float64(d.alloc)/acts, n)
	rep.set("cpu.ns_per_uop", float64(top.dur().Nanoseconds())/float64(d.uops), int(d.uops))
	rep.set("cpu.uops_per_activation", float64(d.uops)/acts, n)
	rep.set("cpu.tx_aborts_per_activation", float64(d.aborts)/acts, n)
	rep.set("cache.accesses_per_activation", float64(d.cacheAccesses)/acts, n)
	rep.set("cache.l1i_miss_ratio", ratio(float64(d.l1iMisses), float64(d.l1iAccesses)), int(d.l1iAccesses))
	rep.set("branch.mispredicts_per_activation", float64(d.mispredicts)/acts, n)
	rep.exact["core.activations"] = d.activations
	rep.exact["cpu.uops"] = d.uops
	rep.exact["cache.accesses"] = d.cacheAccesses

	start := time.Now()
	rep.set("cache.fetch_ns", fetchNS(rig), microReps*microOps)
	rep.set("branch.predict_ns", predictNS(rig), microReps*microOps)
	spans.add(parent, "cache+branch.micro", start, time.Now(), "replay", "")
	return rep, nil
}

// replayGates re-runs attempt 0 of gate-mix's leading jobs gate by
// gate, as the engine's gate handler does.
func replayGates(rig *replayRig, gen *generator, rep *layerReport, spans *spanLog, parent int) (rung, error) {
	var bp, tsx time.Duration
	var nbp, ntsx int
	top, err := rig.measure(func() error {
		for i := 0; i < gateReplayJobs; i++ {
			req := gen.get(i)
			rig.m.ReseedNoise(noise.SubSeed(req.Seed, 0))
			jobStart := time.Now()
			for _, in := range req.Inputs {
				start := time.Now()
				if g := rig.sk.Gate(req.Gate); g != nil {
					if _, err := g.Run(in...); err != nil {
						return err
					}
					bp += time.Since(start)
					nbp++
					continue
				}
				if _, err := rig.tsx[req.Gate].Run(in...); err != nil {
					return err
				}
				tsx += time.Since(start)
				ntsx++
			}
			spans.add(parent, "core.gate:"+req.Gate, jobStart, time.Now(), "replay", "")
		}
		return nil
	})
	if err != nil {
		return top, err
	}
	if got := uint64(nbp + ntsx); got != top.d.activations {
		return top, fmt.Errorf("gate replay: %d activations run, %d output reads counted", got, top.d.activations)
	}
	rep.set("core.bp_activation_us", usPer(bp, nbp), nbp)
	rep.set("core.tsx_activation_us", usPer(tsx, ntsx), ntsx)
	return top, nil
}

// replaySHA1 hashes sha1's first message with the worker's hasher,
// evaluates the first SHA-1 round of that message as the sha1round
// netlist through timed GateOp calls, and samples direct BP gate
// activations.
func replaySHA1(rig *replayRig, gen *generator, rep *layerReport, spans *spanLog, parent int) (rung, error) {
	req := gen.get(0)
	top, err := replayBlock(rig, req, rep, spans, parent)
	if err != nil {
		return top, err
	}
	rep.set("skelly.activations_per_op", ratio(float64(top.d.activations), float64(top.d.gateOps)), int(top.d.gateOps))

	spec, err := presetSpec("sha1round")
	if err != nil {
		return top, err
	}
	plan, err := circopt.Optimize(spec, circopt.Options{})
	if err != nil {
		return top, err
	}
	lib := &timedLib{sk: rig.sk}
	start := time.Now()
	if _, err := circopt.EvalPlan(lib, plan, sha1RoundInputs(req.Message), noise.SubSeed(req.Seed, 1)); err != nil {
		return top, err
	}
	spans.add(parent, "skelly.GateOp:sha1round", start, time.Now(), "replay", "")
	rep.set("skelly.op_us", usPer(lib.spent, lib.calls), lib.calls)

	if err := sampleBP(rig, req.Seed, rep, spans, parent); err != nil {
		return top, err
	}
	return top, nil
}

// replayBlock hashes req's message with the worker's hasher, as the
// engine's sha1 handler does for attempt 0, and sets the sha1wm
// metrics.
func replayBlock(rig *replayRig, req *request, rep *layerReport, spans *spanLog, parent int) (rung, error) {
	rig.m.ReseedNoise(noise.SubSeed(req.Seed, 0))
	h := sha1wm.New(rig.sk)
	top, err := rig.measure(func() error {
		_, err := h.Sum(req.Message)
		return err
	})
	if err != nil {
		return top, err
	}
	spans.add(parent, "sha1wm.Sum", top.start, top.end, "replay", "")
	blocks := uint64(len(sha1wm.Blocks(sha1wm.Pad(req.Message))))
	rep.set("sha1wm.block_ms", ms(top.dur())/float64(blocks), int(blocks))
	rep.set("sha1wm.gate_ops_per_block", float64(top.d.gateOps/blocks), int(blocks))
	rep.exact["sha1wm.gate_ops"] = top.d.gateOps
	return top, nil
}

// sha1RoundInputs lays out the first round of msg's first block on
// the sha1round netlist's inputs: a..e from the SHA-1 initial state,
// then w[0] and the round-0 constant, 32 bits each, LSB first.
func sha1RoundInputs(msg []byte) []int {
	block := sha1wm.Blocks(sha1wm.Pad(msg))[0]
	words := []uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0,
		binary.BigEndian.Uint32(block), 0x5A827999}
	in := make([]int, 0, 32*len(words))
	for _, w := range words {
		for b := 0; b < 32; b++ {
			in = append(in, int(w>>b&1))
		}
	}
	return in
}

// replayCircuits compiles each preset, then evaluates circuit-reuse's
// leading non-repeat jobs plan by plan through timed GateOp calls,
// with the engine's per-vector seed schedule.
func replayCircuits(rig *replayRig, gen *generator, rep *layerReport, spans *spanLog, parent int) (rung, error) {
	plans := map[string]*circopt.Plan{}
	var compile sample
	gatesOut := 0
	for _, p := range circuitPresets {
		spec, err := presetSpec(p.name)
		if err != nil {
			return rung{}, err
		}
		var times sample
		for k := 0; k < microReps; k++ {
			start := time.Now()
			plan, err := circopt.Optimize(spec, circopt.Options{})
			if err != nil {
				return rung{}, err
			}
			end := time.Now()
			spans.add(parent, "circopt.Optimize:"+p.name, start, end, "replay", "")
			times = append(times, ms(end.Sub(start)))
			plans[p.name] = plan
		}
		compile = append(compile, times.median())
		gatesOut += plans[p.name].Stats.GatesOut
	}
	rep.set("circopt.compile_ms", compile.mean(), len(circuitPresets)*microReps)
	rep.set("circopt.gates_out", float64(gatesOut), len(circuitPresets))
	rep.exact["circopt.gates_out"] = uint64(gatesOut)

	lib := &timedLib{sk: rig.sk}
	planGates := 0
	top, err := rig.measure(func() error {
		for i, done := 0, 0; done < circuitReplayJobs; i++ {
			req := gen.get(i)
			if req.RepeatOf >= 0 {
				continue
			}
			done++
			plan := plans[req.Preset]
			seed := noise.SubSeed(req.Seed, 0) // attempt 0's seed
			start := time.Now()
			for v, in := range req.Inputs {
				if _, err := circopt.EvalPlan(lib, plan, in, noise.SubSeed(seed, uint64(v))); err != nil {
					return err
				}
				planGates += len(plan.Gates)
			}
			spans.add(parent, "circopt.EvalPlan:"+req.Preset, start, time.Now(), "replay", "")
		}
		return nil
	})
	if err != nil {
		return top, err
	}
	rep.set("circopt.eval_us_per_gate", usPer(top.dur(), planGates), planGates)
	rep.set("skelly.op_us", usPer(lib.spent, lib.calls), lib.calls)
	rep.set("skelly.activations_per_op", ratio(float64(top.d.activations), float64(top.d.gateOps)), int(top.d.gateOps))
	if err := sampleBP(rig, gen.get(0).Seed, rep, spans, parent); err != nil {
		return top, err
	}
	return top, nil
}

// sampleBP times direct activations of the library's two-input BP
// gates, the activations skelly's redundancy loop repeats.
func sampleBP(rig *replayRig, seed uint64, rep *layerReport, spans *spanLog, parent int) error {
	rng := rand.New(rand.NewPCG(seed, 0x6270))
	gates := []*core.BPGate{rig.sk.Gate("AND"), rig.sk.Gate("OR"), rig.sk.Gate("NAND")}
	rig.m.ReseedNoise(noise.SubSeed(seed, 2))
	start := time.Now()
	for k := 0; k < bpSampleOps; k++ {
		if _, err := gates[k%len(gates)].Run(randomBits(rng, 2)...); err != nil {
			return err
		}
	}
	end := time.Now()
	spans.add(parent, "core.BPGate.Run", start, end, "replay", "")
	rep.set("core.bp_activation_us", usPer(end.Sub(start), bpSampleOps), bpSampleOps)
	return nil
}

// fetchNS times (*cache.Hierarchy).FetchInst on lines already
// resident in L1I, on a hierarchy with the machine's geometry.
func fetchNS(rig *replayRig) float64 {
	h := cache.NewHierarchy(rig.m.CPU().Hierarchy().Config())
	const lines = 64
	base := mem.Addr(0x40_0000)
	for i := 0; i < lines; i++ {
		h.FetchInst(base + mem.Addr(i*mem.LineSize))
	}
	return medianNS(func() {
		for k := 0; k < microOps; k++ {
			h.FetchInst(base + mem.Addr(k%lines*mem.LineSize))
		}
	})
}

// predictNS times one Predict plus one Update of the machine's
// direction predictor. It runs last: it trains the predictor.
func predictNS(rig *replayRig) float64 {
	p := rig.m.CPU().Predictor()
	base := mem.Addr(0x40_0000)
	return medianNS(func() {
		for k := 0; k < microOps; k++ {
			pc := base + mem.Addr(k%256*4)
			p.Update(pc, p.Predict(pc) != (k&1 == 1))
		}
	})
}

func medianNS(loop func()) float64 {
	var per sample
	for r := 0; r < microReps; r++ {
		start := time.Now()
		loop()
		per = append(per, float64(time.Since(start).Nanoseconds())/microOps)
	}
	return per.median()
}

func usPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// exactDrift lists the exact counts on which two replays of one seed
// disagree.
func exactDrift(a, b map[string]uint64) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s: %d then %d", k, v, b[k]))
		}
	}
	sort.Strings(out)
	return out
}
