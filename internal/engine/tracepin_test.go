package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"uwm/internal/flightrec"
	"uwm/internal/trace"
)

// pinnedTraces are the sha256 sums of the JSONL flight recordings of
// fixed-seed jobs, each the first job of a fresh single-worker engine
// with uwm-serve's recorder defaults (every healthy trace kept,
// 4096-event ring; adder8 overflows it).
// They pin the kept bytes of every trace text the simulator renders —
// commit and transient disassembly, flush and transaction markers,
// register names, timed-read payloads, spans and the health checkpoint
// — so a change to how that text is produced cannot silently change
// what a recording holds.
var pinnedTraces = []struct {
	name   string
	spec   JobSpec
	events int
	sha256 string
}{
	{"bp-and", JobSpec{Type: JobTypeGate, Seed: 7, Params: []byte(`{"gate":"AND","random":6}`)},
		610, "81974d26013a93d1f749ca62302f036a6166df0883f694751f04169a1487fb92"},
	{"tsx-and", JobSpec{Type: JobTypeGate, Seed: 7, Params: []byte(`{"gate":"TSX_AND","random":6}`)},
		672, "26ae9ce439043ec2fed3a706d0d1f3bd28bd7ac64b296baf880f794ff951b268"},
	{"tsx-xor", JobSpec{Type: JobTypeGate, Seed: 7, Params: []byte(`{"gate":"TSX_XOR","random":6}`)},
		994, "67156365464dc261982507a96ed9056bb3b54ecd21316406ae47e00734a997eb"},
	{"adder8", JobSpec{Type: JobTypeCircuit, Seed: 7, Params: []byte(`{"circuit":"adder8","random":2}`)},
		4097, "d45d3932a261c840409b98623f30f4c8d1e6a24937071586363ce478045c45f3"},
}

// TestKeptTracesPinned replays each pinned job and compares the kept
// recording's JSONL bytes with the pinned hash.
func TestKeptTracesPinned(t *testing.T) {
	for _, tc := range pinnedTraces {
		t.Run(tc.name, func(t *testing.T) {
			fr := flightrec.New(flightrec.Config{HeadRate: 1})
			e := newTestEngine(t, Config{Workers: 1, FlightRec: fr})
			j := mustSubmit(t, e, tc.spec)
			if snap := waitJob(t, j); snap.Status != StatusDone {
				t.Fatalf("status %s, err %q", snap.Status, snap.Error)
			}
			kt, ok := fr.Get(j.ID())
			if !ok {
				t.Fatal("trace not kept at head rate 1")
			}
			var buf bytes.Buffer
			if err := trace.EncodeJSONL(&buf, kt.Events); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if got != tc.sha256 || len(kt.Events) != tc.events {
				t.Errorf("kept trace: %d events, sha256 %s; pinned %d events, sha256 %s",
					len(kt.Events), got, tc.events, tc.sha256)
			}
		})
	}
}

// TestRigProgramsDisasm checks that every program a worker rig builds
// carries a pre-rendered disassembly identical to what Inst.String
// renders on demand.
func TestRigProgramsDisasm(t *testing.T) {
	rig, err := newRig(Config{}.normalized(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	progs := rig.Machine.Programs()
	if len(progs) < 2 {
		t.Fatalf("rig built %d programs", len(progs))
	}
	insts := 0
	for _, p := range progs {
		for i := range p.Code {
			if got, want := p.Disasm(i), p.Code[i].String(); got != want {
				t.Fatalf("program at %#x, inst %d: Disasm %q, String %q", uint64(p.Base), i, got, want)
			}
			insts++
		}
	}
	t.Logf("%d programs, %d instructions", len(progs), insts)
}
