package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// probeDoc is what a probe round encodes and decodes.
type probeDoc struct {
	Name   string      `json:"name"`
	Values []int       `json:"values"`
	Index  map[int]int `json:"index"`
	Sum    []byte      `json:"sum"`
}

// prober holds one probe goroutine's buffers, reused from round to
// round so that the probe allocates little and its time does not
// depend on the garbage collector's state.
type prober struct {
	rng  *rand.Rand
	buf  []byte
	ints []int
	doc  probeDoc
	back probeDoc
	out  bytes.Buffer
	enc  *json.Encoder
}

func newProber(g int) *prober {
	p := &prober{rng: rand.New(rand.NewPCG(uint64(g), 1)), buf: make([]byte, 4096), ints: make([]int, 1024),
		doc: probeDoc{Name: "probe", Index: map[int]int{}}}
	p.enc = json.NewEncoder(&p.out)
	return p
}

// round is one round of the host-speed probe: a fixed mix of hashing,
// sorting, map inserts and a JSON round trip, the kinds of work the
// server and gateway do, written with the standard library only, so
// no change to the repository's code changes its cost.
func (p *prober) round() {
	for i := range p.buf {
		p.buf[i] = byte(p.rng.Uint32())
	}
	sum := sha256.Sum256(p.buf)
	for i := range p.ints {
		p.ints[i] = int(p.rng.Uint32())
	}
	sort.Ints(p.ints)
	clear(p.doc.Index)
	for i := 0; i < 256; i++ {
		p.doc.Index[p.ints[i]] = i
	}
	p.doc.Values, p.doc.Sum = p.ints[:64], sum[:]
	p.out.Reset()
	if err := p.enc.Encode(&p.doc); err != nil {
		panic(err) // ints, bytes and a string: cannot fail
	}
	if err := json.Unmarshal(p.out.Bytes(), &p.back); err != nil {
		panic(err)
	}
}

// probeRefMs is the probe's batch time on the reference host, a quiet
// two-vCPU Intel Xeon VM. The end-to-end time metrics are scaled to
// what they would read there: a host running slower than that by a
// factor (probe time over probeRefMs) has its rates multiplied and
// its times divided by that factor. On a shared host, whose speed can
// change by half within minutes as its neighbours come and go, the
// scaled figures move with the program and hardly with the host.
const probeRefMs = 10.0

// probeTime is how long one probe times batches, after probeWarm of
// untimed ones; a run probes before each stack and once after the
// last. Batches in a fresh process, or after a pause, were seen to take
// up to twice as long for the first few hundred milliseconds; the
// warm-up keeps that out of the timed batches.
const (
	probeWarm = 300 * time.Millisecond
	probeTime = 250 * time.Millisecond
)

// probeRounds is how many rounds one probe batch runs per goroutine.
const probeRounds = 40

// hostProbe times batches of probe rounds on two goroutines at once,
// one per CPU of the two-CPU host, for about d, and returns the median
// batch time in milliseconds. A higher value means a slower host. The
// warm-up batches are not timed, and the garbage collector is run
// before and held off during the timed batches, so the heap the
// benchmark has built up by then does not change the probe's time.
func hostProbe(d time.Duration) float64 {
	probers := []*prober{newProber(0), newProber(1)}
	batch := func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for _, p := range probers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < probeRounds; r++ {
					p.round()
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	for deadline := time.Now().Add(probeWarm); time.Now().Before(deadline); {
		batch()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var batches sample
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		batches = append(batches, ms(batch()))
	}
	return batches.median()
}

// slowness is how much slower than the reference host the host ran
// between two probes.
func slowness(before, after float64) float64 { return (before + after) / 2 / probeRefMs }
