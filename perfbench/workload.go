package main

import (
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"time"

	"uwm/internal/circopt"
	"uwm/internal/core"
)

// request is one job the load generator submits. Every field is a
// pure function of the workload seed and the request index, so two
// runs with one seed send the same sequence.
type request struct {
	Index int
	Type  string
	Seed  uint64
	// Attempts and Vote override the server's retry policy when
	// non-zero (gate-mix sends attempts 3, vote 2 on one job in four).
	Attempts, Vote int

	Gate    string  // gate-mix
	Preset  string  // circuit-reuse
	Inputs  [][]int // gate-mix and circuit-reuse: explicit input vectors
	Message []byte  // sha1
	// RepeatOf is the index of the earlier request this one repeats
	// exactly (circuit-reuse), or -1.
	RepeatOf int

	Body []byte // the POST /v1/jobs body
}

// jobBody is the POST /v1/jobs request shape (httpapi.JobRequest).
type jobBody struct {
	Type     string `json:"type"`
	Params   any    `json:"params"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts,omitempty"`
	Vote     int    `json:"vote,omitempty"`
	Wait     bool   `json:"wait"`
}

// workload is one traffic mix: how request i is made and how its
// answer is checked against the benchmark's own reference.
type workload struct {
	name string
	why  string
	// make builds request i from the workload's RNG; earlier requests
	// are visible so a request can repeat one of them.
	make func(rng *rand.Rand, i int, earlier []*request) *request
	// check validates a job's voted value against the benchmark's own
	// computation and returns the work it represents.
	check func(r *request, value json.RawMessage, attempts int) (outcome, error)
	// digestPrefix is how many leading requests sim_digest covers:
	// small enough that every run completes them.
	digestPrefix int
	// stacks is how many fresh stacks a --trace 0 run measures in
	// turn, and window about how long one measurement window lasts:
	// long enough to hold well over ten answers, so each window has a
	// tail.
	stacks int
	window time.Duration
	// tailQ is the quantile latency_tail_ms takes in each window: the
	// highest that leaves at least ten answers beyond it in a window
	// when the host runs at half the reference speed. It is fixed, not
	// worked out from each window's count, so that a faster host, with
	// more answers per window, does not move the tail to a higher
	// percentile.
	tailQ float64
	// rssAt is how many answers a stack has given when peak_rss_mb is
	// read: a count every stack reaches, so that the memory measured is
	// that of the same work however fast the host runs.
	rssAt int
}

// outcome is what one checked answer contributes to the metrics.
type outcome struct {
	ops     float64 // logical weird-gate operations the job executed
	correct int     // outputs equal to the reference
	total   int     // outputs scored
}

var workloads = []*workload{gateMix, sha1Workload, circuitReuse}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// mix64 is the splitmix64 finalizer: a bijection, so distinct inputs
// give distinct job seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// generator hands out a workload's request sequence to concurrent
// clients. Request i is the same whichever client takes it.
type generator struct {
	w    *workload
	seed uint64
	base uint64

	mu   sync.Mutex
	rng  *rand.Rand
	reqs []*request
}

func newGenerator(w *workload, seed uint64) *generator {
	h := nameHash(w.name)
	return &generator{
		w:    w,
		seed: seed,
		base: mix64(seed ^ h),
		rng:  rand.New(rand.NewPCG(seed, h)),
	}
}

// jobSeed is request i's job seed: unique within the run and never 0
// (0 asks the server to derive one, which the gateway cannot cache).
func (g *generator) jobSeed(i int) uint64 {
	if s := mix64(g.base + uint64(i)); s != 0 {
		return s
	}
	return 1
}

// warmupSeed gives set-up jobs seeds drawn from a separate stream, so
// they never collide with (and pre-warm the cache for) a measured
// request.
func (g *generator) warmupSeed(j int) uint64 {
	return mix64(mix64(g.base^0x7761726d75702121) + uint64(j))
}

// get returns request i, generating the sequence up to it.
func (g *generator) get(i int) *request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.reqs) <= i {
		n := len(g.reqs)
		r := g.w.make(g.rng, n, g.reqs)
		r.Index = n
		if r.RepeatOf < 0 {
			r.Seed = g.jobSeed(n)
		}
		if r.Body == nil {
			r.Body = encodeBody(r)
		}
		g.reqs = append(g.reqs, r)
	}
	return g.reqs[i]
}

func encodeBody(r *request) []byte {
	var params any
	switch r.Type {
	case "gate":
		params = map[string]any{"gate": r.Gate, "inputs": r.Inputs}
	case "sha1":
		params = map[string]any{"message_b64": base64.StdEncoding.EncodeToString(r.Message)}
	case "circuit":
		params = map[string]any{"circuit": r.Preset, "inputs": r.Inputs}
	}
	b, err := json.Marshal(jobBody{Type: r.Type, Params: params, Seed: r.Seed,
		Attempts: r.Attempts, Vote: r.Vote, Wait: true})
	if err != nil {
		panic(err) // only plain maps, slices and strings: cannot fail
	}
	return b
}

func randomBits(rng *rand.Rand, n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = int(rng.Uint64() >> 63)
	}
	return v
}

// --- gate-mix ----------------------------------------------------------

// gateTruth is the benchmark's own truth table for every gate the
// gate job type serves, in the order gate-mix cycles through them.
var gateTruth = []struct {
	name  string
	arity int
	f     func(in []int) int
}{
	{"AND", 2, func(in []int) int { return in[0] & in[1] }},
	{"OR", 2, func(in []int) int { return in[0] | in[1] }},
	{"NAND", 2, func(in []int) int { return 1 - in[0]&in[1] }},
	{"AND_AND_OR", 4, func(in []int) int { return in[0]&in[1] | in[2]&in[3] }},
	{"TSX_AND", 2, func(in []int) int { return in[0] & in[1] }},
	{"TSX_OR", 2, func(in []int) int { return in[0] | in[1] }},
	{"TSX_XOR", 2, func(in []int) int { return in[0] ^ in[1] }},
	{"TSX_ASSIGN", 1, func(in []int) int { return in[0] }},
}

const gateVectors = 16

var gateMix = &workload{
	name:         "gate-mix",
	why:          "small gate jobs over all eight gates: serving overhead and per-job flight capture carry most of the host time",
	digestPrefix: 256,
	stacks:       8,
	window:       3 * time.Second,
	tailQ:        0.99,
	rssAt:        1500,
	make: func(rng *rand.Rand, i int, _ []*request) *request {
		g := gateTruth[i%len(gateTruth)]
		r := &request{Type: "gate", Gate: g.name, RepeatOf: -1}
		for v := 0; v < gateVectors; v++ {
			r.Inputs = append(r.Inputs, randomBits(rng, g.arity))
		}
		if i%4 == 3 {
			r.Attempts, r.Vote = 3, 2
		}
		return r
	},
	check: func(r *request, value json.RawMessage, attempts int) (outcome, error) {
		var v struct {
			Gate    string  `json:"gate"`
			Outputs [][]int `json:"outputs"`
			Golden  [][]int `json:"golden"`
			Correct int     `json:"correct"`
			Total   int     `json:"total"`
		}
		if err := json.Unmarshal(value, &v); err != nil {
			return outcome{}, fmt.Errorf("decoding gate result: %w", err)
		}
		var f func([]int) int
		for _, g := range gateTruth {
			if g.name == r.Gate {
				f = g.f
			}
		}
		if v.Gate != r.Gate || len(v.Outputs) != len(r.Inputs) || len(v.Golden) != len(r.Inputs) {
			return outcome{}, fmt.Errorf("gate result shape: gate %q, %d outputs, %d golden for %d vectors",
				v.Gate, len(v.Outputs), len(v.Golden), len(r.Inputs))
		}
		o := outcome{ops: float64(len(r.Inputs) * attempts)}
		for i, in := range r.Inputs {
			want := f(in)
			if len(v.Golden[i]) != 1 || v.Golden[i][0] != want {
				return outcome{}, fmt.Errorf("gate %s golden %v for inputs %v, want [%d]", r.Gate, v.Golden[i], in, want)
			}
			if len(v.Outputs[i]) != 1 {
				return outcome{}, fmt.Errorf("gate %s output %v is not one bit", r.Gate, v.Outputs[i])
			}
			o.total++
			if v.Outputs[i][0] == want {
				o.correct++
			}
		}
		if v.Correct != o.correct || v.Total != o.total {
			return outcome{}, fmt.Errorf("gate %s reports %d/%d correct, recount gives %d/%d",
				r.Gate, v.Correct, v.Total, o.correct, o.total)
		}
		return o, nil
	},
}

// --- sha1 --------------------------------------------------------------

// sha1MaxOneBlock is the longest message that pads to one 64-byte block.
const sha1MaxOneBlock = 55

var sha1Workload = &workload{
	name:         "sha1",
	why:          "weird SHA-1 of distinct one-block messages: the cache, branch, cpu, core, skelly and sha1wm layers do nearly all the work",
	digestPrefix: 2,
	stacks:       1, // a job takes seconds: one stack, one window
	window:       time.Hour,
	tailQ:        1,
	rssAt:        2,
	make: func(rng *rand.Rand, i int, _ []*request) *request {
		// The index prefix keeps messages distinct; the rest is random
		// printable text up to one block.
		msg := []byte(fmt.Sprintf("%d:", i))
		n := 16 + rng.IntN(sha1MaxOneBlock-16+1)
		for len(msg) < n {
			msg = append(msg, byte(' '+rng.IntN(95)))
		}
		return &request{Type: "sha1", Message: msg, RepeatOf: -1}
	},
	check: func(r *request, value json.RawMessage, attempts int) (outcome, error) {
		var v struct {
			Digest    string `json:"digest"`
			Reference string `json:"reference"`
			Match     bool   `json:"match"`
			GateOps   uint64 `json:"gate_ops"`
		}
		if err := json.Unmarshal(value, &v); err != nil {
			return outcome{}, fmt.Errorf("decoding sha1 result: %w", err)
		}
		sum := sha1.Sum(r.Message)
		ref := hex.EncodeToString(sum[:])
		if v.Reference != ref {
			return outcome{}, fmt.Errorf("sha1 reference %s, crypto/sha1 gives %s", v.Reference, ref)
		}
		if v.Match != (v.Digest == ref) {
			return outcome{}, fmt.Errorf("sha1 match flag %v disagrees with digest %s", v.Match, v.Digest)
		}
		if v.GateOps == 0 {
			return outcome{}, fmt.Errorf("sha1 result reports no gate operations")
		}
		o := outcome{ops: float64(v.GateOps) * float64(attempts), total: 1}
		if v.Digest == ref {
			o.correct = 1
		}
		return o, nil
	},
}

// --- circuit-reuse -----------------------------------------------------

// circuitPresets are the netlists circuit-reuse evaluates, with the
// vector counts that make a miss on either cost about the same. New
// requests take them two to one, by request index: the latency median
// then falls inside the adder32 misses rather than on the edge between
// the two presets' slightly different miss latencies.
var circuitPresets = []struct {
	name    string
	vectors int
}{
	{"adder32", 4},
	{"sha1round", 1},
}

// presetSpecs caches the preset netlists the checks evaluate.
var presetSpecs = struct {
	sync.Mutex
	m map[string]*core.CircuitSpec
}{m: map[string]*core.CircuitSpec{}}

func presetSpec(name string) (*core.CircuitSpec, error) {
	presetSpecs.Lock()
	defer presetSpecs.Unlock()
	if s, ok := presetSpecs.m[name]; ok {
		return s, nil
	}
	s, err := circopt.Preset(name)
	if err != nil {
		return nil, err
	}
	presetSpecs.m[name] = s
	return s, nil
}

const (
	// Every circuitRepeatEvery-th request repeats an earlier (preset,
	// seed) key: one in four, well away from one half, so the latency
	// median stays among the misses.
	circuitRepeatEvery = 4
	// circuitRepeatWindow is how far back a repeat reaches. A repeat
	// of the previous request often finds it still in flight on the
	// other client and collapses onto it; older ones are cache hits.
	// Which one a repeat takes cycles through the window by position,
	// not by a draw from the seed: the number of hits and collapses
	// sets how much of a run's work is cheap reuse, and with
	// seed-drawn repeats it moved jobs_per_s by about ten per cent
	// from seed to seed.
	circuitRepeatWindow = 8
)

var circuitReuse = &workload{
	name:         "circuit-reuse",
	why:          "adder32 and sha1round circuit jobs, one in four repeating an earlier key: circopt and the gateway result cache both work, skelly BP gates do the evaluation",
	digestPrefix: 32,
	stacks:       8,
	window:       5 * time.Second,
	tailQ:        0.85,
	rssAt:        48,
	make: func(rng *rand.Rand, i int, earlier []*request) *request {
		if i%circuitRepeatEvery == circuitRepeatEvery-1 {
			back := 1 + (i/circuitRepeatEvery)%circuitRepeatWindow
			orig := earlier[i-back]
			if orig.RepeatOf >= 0 {
				orig = earlier[orig.RepeatOf]
			}
			r := *orig
			r.RepeatOf = orig.Index
			return &r
		}
		p := circuitPresets[0]
		if i%3 == 2 {
			p = circuitPresets[1]
		}
		spec, err := presetSpec(p.name)
		if err != nil {
			panic(err) // the preset names above are built in
		}
		r := &request{Type: "circuit", Preset: p.name, RepeatOf: -1}
		for v := 0; v < p.vectors; v++ {
			r.Inputs = append(r.Inputs, randomBits(rng, spec.NumInputs))
		}
		return r
	},
	check: func(r *request, value json.RawMessage, attempts int) (outcome, error) {
		var v struct {
			Circuit  string  `json:"circuit"`
			GatesOut int     `json:"gates_out"`
			Outputs  [][]int `json:"outputs"`
			Golden   [][]int `json:"golden"`
			Correct  int     `json:"correct"`
			Total    int     `json:"total"`
		}
		if err := json.Unmarshal(value, &v); err != nil {
			return outcome{}, fmt.Errorf("decoding circuit result: %w", err)
		}
		spec, err := presetSpec(r.Preset)
		if err != nil {
			return outcome{}, err
		}
		if v.Circuit != r.Preset || len(v.Outputs) != len(r.Inputs) || len(v.Golden) != len(r.Inputs) {
			return outcome{}, fmt.Errorf("circuit result shape: circuit %q, %d outputs, %d golden for %d vectors",
				v.Circuit, len(v.Outputs), len(v.Golden), len(r.Inputs))
		}
		o := outcome{ops: float64(v.GatesOut * len(r.Inputs) * attempts)}
		for i, in := range r.Inputs {
			want, err := spec.Eval(in)
			if err != nil {
				return outcome{}, err
			}
			if !equalInts(v.Golden[i], want) {
				return outcome{}, fmt.Errorf("circuit %s golden disagrees with CircuitSpec.Eval on vector %d", r.Preset, i)
			}
			if len(v.Outputs[i]) != len(want) {
				return outcome{}, fmt.Errorf("circuit %s vector %d has %d outputs, want %d", r.Preset, i, len(v.Outputs[i]), len(want))
			}
			for k := range want {
				o.total++
				if v.Outputs[i][k] == want[k] {
					o.correct++
				}
			}
		}
		if v.Correct != o.correct || v.Total != o.total {
			return outcome{}, fmt.Errorf("circuit %s reports %d/%d correct, recount gives %d/%d",
				r.Preset, v.Correct, v.Total, o.correct, o.total)
		}
		return o, nil
	},
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
