package health

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// sscanfTimedRead is the fmt.Sscanf reading of a timed-read payload,
// kept as the reference parseTimedRead must agree with.
func sscanfTimedRead(text string) (gate string, out, bit int, ok bool) {
	if !strings.HasPrefix(text, "gate=") {
		return "", 0, 0, false
	}
	n, err := fmt.Sscanf(text, "gate=%s out=%d bit=%d", &gate, &out, &bit)
	if err != nil || n != 3 {
		return "", 0, 0, false
	}
	return gate, out, bit, true
}

// wellFormedName reports whether name can appear as NAME in a
// timed-read payload: non-empty printable ASCII without spaces.
func wellFormedName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] <= ' ' || name[i] > '~' {
			return false
		}
	}
	return true
}

func TestParseTimedReadTable(t *testing.T) {
	for _, tc := range []struct {
		text     string
		gate     string
		out, bit int
		ok       bool
	}{
		{"gate=AND out=0 bit=1", "AND", 0, 1, true},
		{"gate=TSX_AND out=2 bit=0", "TSX_AND", 2, 0, true},
		{"gate=TSX_XOR out=17 bit=1", "TSX_XOR", 17, 1, true},
		{"gate=Xout=1 out=3 bit=0", "Xout=1", 3, 0, true},
		{"gate=g out=-1 bit=+1", "g", -1, 1, true},
		{"gate=g out=007 bit=01", "g", 7, 1, true},
		{"", "", 0, 0, false},
		{"gate=", "", 0, 0, false},
		{"nope", "", 0, 0, false},
		{"gate=X out=y bit=z", "", 0, 0, false},
		{"gate= out=1 bit=0", "", 0, 0, false},
		{"gate=A  out=1 bit=0", "", 0, 0, false},
		{"gate=A out=1  bit=0", "", 0, 0, false},
		{"gate=A out= 1 bit=0", "", 0, 0, false},
		{"gate=A out=1 bit=", "", 0, 0, false},
		{"gate=A out=1 bit=1x", "", 0, 0, false},
		{"gate=A out=1 bit=1 ", "", 0, 0, false},
		{"gate=A out=1 bit=1 bit=0", "", 0, 0, false},
		{"gate=A out=1", "", 0, 0, false},
		{"gate=A bit=1", "", 0, 0, false},
		{"gate=A\tB out=1 bit=0", "", 0, 0, false},
		{"gate=A B out=1 bit=0", "", 0, 0, false},
		{"gate=A out=9223372036854775808 bit=0", "", 0, 0, false},
		{" gate=A out=1 bit=0", "", 0, 0, false},
	} {
		gate, out, bit, ok := parseTimedRead(tc.text)
		if gate != tc.gate || out != tc.out || bit != tc.bit || ok != tc.ok {
			t.Errorf("parseTimedRead(%q) = %q %d %d %v, want %q %d %d %v",
				tc.text, gate, out, bit, ok, tc.gate, tc.out, tc.bit, tc.ok)
		}
		if !tc.ok {
			continue
		}
		sg, so, sb, sok := sscanfTimedRead(tc.text)
		if sg != gate || so != out || sb != bit || !sok {
			t.Errorf("Sscanf reads %q as %q %d %d %v", tc.text, sg, so, sb, sok)
		}
	}
}

// FuzzParseTimedRead checks two properties: every well-formed payload
// built from the fuzzed name and numbers parses to exactly what the
// Sscanf form reads, and any text parseTimedRead accepts at all is read
// the same way by the Sscanf form, with a well-formed name: malformed
// texts are rejected, never misread.
func FuzzParseTimedRead(f *testing.F) {
	f.Add("AND", 0, 1)
	f.Add("TSX_XOR", 2, 0)
	f.Add("gate=A out=1 bit=1x", -3, 7)
	f.Add("A B", 1, 1)
	f.Fuzz(func(t *testing.T, text string, out, bit int) {
		check := func(text string) (accepted bool) {
			gate, o, b, ok := parseTimedRead(text)
			if !ok {
				return false
			}
			sg, so, sb, sok := sscanfTimedRead(text)
			if !sok || sg != gate || so != o || sb != b {
				t.Fatalf("%q: parsed %q %d %d, Sscanf %q %d %d %v", text, gate, o, b, sg, so, sb, sok)
			}
			if !wellFormedName(gate) {
				t.Fatalf("%q: accepted malformed name %q", text, gate)
			}
			return true
		}
		check(text)
		if !wellFormedName(text) {
			return
		}
		payload := "gate=" + text + " out=" + strconv.Itoa(out) + " bit=" + strconv.Itoa(bit)
		if !check(payload) {
			t.Fatalf("rejected well-formed payload %q", payload)
		}
	})
}
