package solver

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// sameGenome compares genomes field by field, keys by bit pattern (NaN
// round-trips as itself), with empty and nil fields equal.
func sameGenome(a, b Genome) bool {
	if len(a.Seq) != len(b.Seq) || len(a.Assign) != len(b.Assign) || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			return false
		}
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	for i := range a.Keys {
		if math.Float64bits(a.Keys[i]) != math.Float64bits(b.Keys[i]) {
			return false
		}
	}
	return true
}

func randInts(r *rng.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = r.Intn(16) // the common case: small gene values
		case 1:
			out[i] = -r.Intn(1 << 20)
		case 2:
			out[i] = int(r.Uint64())
		default:
			out[i] = []int{0, -1, math.MaxInt, math.MinInt}[r.Intn(4)]
		}
	}
	return out
}

func randKeys(r *rng.RNG, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	out := make([]float64, n)
	for i := range out {
		if r.Intn(4) == 0 {
			out[i] = special[r.Intn(len(special))]
		} else {
			out[i] = r.Float64()*2 - 1
		}
	}
	return out
}

// TestGenomeJSONRoundTrip is the codec's property test: seq, keys and
// flex genomes of random length (empty included) with extreme values
// survive marshal → unmarshal exactly, alone and inside the wire types
// that carry them; empty fields come back nil.
func TestGenomeJSONRoundTrip(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		n := r.Intn(40)
		var g Genome
		switch i % 4 {
		case 0:
			g = Genome{Seq: randInts(r, n)}
		case 1:
			g = Genome{Keys: randKeys(r, n)}
		case 2:
			g = Genome{Assign: randInts(r, n), Seq: randInts(r, r.Intn(40))}
		default:
			g = Genome{Seq: []int{}, Keys: []float64{}, Assign: []int{}}
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal %+v: %v", g, err)
		}
		if raw[0] != '"' {
			t.Fatalf("genome not packed into a string: %s", raw)
		}
		var back Genome
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if !sameGenome(g, back) {
			t.Fatalf("round trip changed the genome:\n%+v\n%+v", g, back)
		}
		if (len(back.Seq) == 0 && back.Seq != nil) || (len(back.Keys) == 0 && back.Keys != nil) || (len(back.Assign) == 0 && back.Assign != nil) {
			t.Fatalf("empty field decoded non-nil: %+v", back)
		}

		// Inside a migrant and a checkpoint (pointer and slice positions).
		cp := Checkpoint{Demes: []DemeState{{Pop: []Genome{g, g}, Best: &g}}}
		if raw, err = json.Marshal(Migrant{Genome: g, Obj: 3}); err != nil {
			t.Fatal(err)
		}
		var m Migrant
		if err := json.Unmarshal(raw, &m); err != nil || !sameGenome(g, m.Genome) || m.Obj != 3 {
			t.Fatalf("migrant round trip: %v %+v", err, m)
		}
		if raw, err = json.Marshal(&cp); err != nil {
			t.Fatal(err)
		}
		var cb Checkpoint
		if err := json.Unmarshal(raw, &cb); err != nil {
			t.Fatalf("checkpoint round trip: %v", err)
		}
		if !sameGenome(g, cb.Demes[0].Pop[1]) || !sameGenome(g, cb.Demes[0].Pop[0]) || !sameGenome(g, *cb.Demes[0].Best) {
			t.Fatalf("checkpoint genomes changed")
		}
	}

	// null: a no-op on a value, nil for a pointer.
	g := Genome{Seq: []int{1}}
	if err := json.Unmarshal([]byte("null"), &g); err != nil || len(g.Seq) != 1 {
		t.Errorf("null into a genome: %v, %+v", err, g)
	}
	var cp Checkpoint
	if err := json.Unmarshal([]byte(`{"demes":[{"pop":[null],"best":null}]}`), &cp); err != nil {
		t.Fatalf("nulls in a checkpoint: %v", err)
	}
	if d := cp.Demes[0]; d.Best != nil || len(d.Pop) != 1 || !sameGenome(d.Pop[0], Genome{}) {
		t.Errorf("nulls decoded as %+v / %+v", d.Best, d.Pop)
	}
	// An escaped token is still a string.
	raw, _ := json.Marshal(Genome{Seq: []int{3, 1, 2}})
	esc := fmt.Sprintf(`"\u%04x%s`, raw[1], raw[2:])
	var back Genome
	if err := json.Unmarshal([]byte(esc), &back); err != nil || !sameGenome(back, Genome{Seq: []int{3, 1, 2}}) {
		t.Errorf("escaped genome string %s: %v %+v", esc, err, back)
	}
}

// frameString wraps a raw frame the way encoding/json writes a genome.
func frameString(frame []byte) []byte {
	return []byte(`"` + base64.RawStdEncoding.EncodeToString(frame) + `"`)
}

// TestGenomeJSONRejects: the retired int-array object, foreign JSON,
// damaged base64 and every malformed frame are errors, never panics.
func TestGenomeJSONRejects(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"old int-array object", []byte(`{"seq":[0,1,2]}`)},
		{"array", []byte(`[1,2]`)},
		{"number", []byte(`7`)},
		{"empty string", []byte(`""`)},
		{"bad base64", []byte(`"!!!!"`)},
		{"padded base64", []byte(`"` + base64.StdEncoding.EncodeToString([]byte{1, 0, 0, 0}) + `"`)},
		{"unquoted", []byte(`AQAAAA`)},
		{"wrong version", frameString([]byte{2, 0, 0, 0})},
		{"truncated counts", frameString([]byte{1, 0})},
		{"seq count past end", frameString(append([]byte{1}, huge...))},
		{"assign count past end", frameString(append([]byte{1, 0}, huge...))},
		{"keys count past end", frameString([]byte{1, 0, 0, 1, 0, 0, 0})},
		{"truncated varint", frameString([]byte{1, 1, 0x80})},
		{"overlong varint", frameString(append([]byte{1, 1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0))},
		{"trailing bytes", frameString([]byte{1, 0, 0, 0, 9})},
	} {
		var g Genome
		if err := json.Unmarshal(tc.data, &g); err == nil {
			t.Errorf("%s: %s decoded to %+v, want an error", tc.name, tc.data, g)
		}
	}
}

// TestGenomeDecodeAllocationBounded: a frame claiming 2^62 genes must be
// rejected from its header, allocating on the order of its own size.
func TestGenomeDecodeAllocationBounded(t *testing.T) {
	frame := append([]byte{1}, binary.AppendUvarint(nil, 1<<62)...)
	frame = append(frame, make([]byte, 4096)...)
	data := frameString(frame)
	var g Genome
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := json.Unmarshal(data, &g)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(2*len(data)+4096) {
		t.Errorf("rejecting a %d-byte genome allocated %d bytes", len(data), got)
	}
}

// FuzzGenomeJSON: arbitrary input never panics, a decoded genome never
// holds more elements than its input had bytes, and whatever decodes
// re-encodes to itself.
func FuzzGenomeJSON(f *testing.F) {
	for _, g := range []Genome{
		{Seq: []int{0, 1, 2, 0, 1, 2}},
		{Keys: []float64{0.5, math.NaN(), math.Inf(-1)}},
		{Assign: []int{1, 0}, Seq: []int{-1, math.MaxInt}},
		{},
	} {
		raw, _ := json.Marshal(g)
		f.Add(raw)
	}
	f.Add([]byte(`{"seq":[0,1]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`"AQAAAA"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Genome
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		if n := len(g.Seq) + len(g.Assign) + len(g.Keys); n > len(data) {
			t.Fatalf("%d-byte input decoded to %d elements", len(data), n)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var back Genome
		if err := json.Unmarshal(raw, &back); err != nil || !sameGenome(g, back) {
			t.Fatalf("re-encoded genome does not round-trip: %v", err)
		}
	})
}
