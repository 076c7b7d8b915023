package solver

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Genome is the encoding-agnostic wire form of one chromosome: exactly one
// field group is populated per encoding (Seq for perm/seq, Keys for keys,
// Assign+Seq for flex). Keeping it flat is what lets a checkpoint
// round-trip through the job store without generic machinery.
//
// On the wire (migrants, piggybacked and durable checkpoints, resubmits,
// Result.BestGenome) a genome is one JSON string: the unpadded standard
// base64 of a versioned binary frame,
//
//	version byte (1)
//	uvarint len(Seq),    then one zigzag varint per gene
//	uvarint len(Assign), then one zigzag varint per gene
//	uvarint len(Keys),   then 8 little-endian IEEE-754 bytes per key
//
// An empty field and a nil one encode alike and decode to nil. Decoding
// bounds every count by the bytes that remain and rejects trailing bytes,
// so a hostile frame can neither over-allocate nor smuggle data; what it
// decodes to is still only a candidate — the per-encoding unpack validators
// decide whether it is a chromosome of the run.
type Genome struct {
	Seq    []int
	Keys   []float64
	Assign []int
}

// genomeWireV1 is the frame version MarshalText writes and UnmarshalText
// accepts.
const genomeWireV1 = 1

var genomeB64 = base64.RawStdEncoding.Strict()

// MarshalText implements encoding.TextMarshaler with the packed frame;
// encoding/json writes it as a JSON string.
func (g Genome) MarshalText() ([]byte, error) {
	var buf [512]byte // fits an ft10-size frame; append moves larger ones to the heap
	frame, _ := g.AppendBinary(buf[:0])
	return genomeB64.AppendEncode(make([]byte, 0, genomeB64.EncodedLen(len(frame))), frame), nil
}

// AppendBinary implements encoding.BinaryAppender: it appends the raw
// packed frame (no base64), the form binary wires such as the federation
// migrant stream carry.
func (g Genome) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, genomeWireV1)
	b = appendVarints(b, g.Seq)
	b = appendVarints(b, g.Assign)
	b = binary.AppendUvarint(b, uint64(len(g.Keys)))
	for _, k := range g.Keys {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k))
	}
	return b, nil
}

func appendVarints(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// UnmarshalText implements encoding.TextUnmarshaler. Through encoding/json
// a JSON null leaves the genome untouched, and anything but a string — the
// retired {"seq":[...]} object form included — is an error.
func (g *Genome) UnmarshalText(text []byte) error {
	var buf [512]byte
	frame := buf[:]
	if m := genomeB64.DecodedLen(len(text)); m > len(buf) {
		frame = make([]byte, m)
	}
	n, err := genomeB64.Decode(frame, text)
	if err != nil {
		return fmt.Errorf("genome: %w", err)
	}
	return g.UnmarshalBinary(frame[:n])
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the raw
// packed frame AppendBinary writes, with the same bounds as
// UnmarshalText. The genome shares no memory with b.
func (g *Genome) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != genomeWireV1 {
		return errors.New("genome: unknown frame version")
	}
	b = b[1:]
	var out Genome
	var err error
	if out.Seq, b, err = readVarints(b); err != nil {
		return fmt.Errorf("genome: seq: %w", err)
	}
	if out.Assign, b, err = readVarints(b); err != nil {
		return fmt.Errorf("genome: assign: %w", err)
	}
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return errors.New("genome: keys: bad count")
	}
	b = b[k:]
	if n > uint64(len(b)/8) {
		return fmt.Errorf("genome: keys: count %d exceeds the %d bytes left", n, len(b))
	}
	if n > 0 {
		out.Keys = make([]float64, n)
		for i := range out.Keys {
			out.Keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*n:]
	}
	if len(b) != 0 {
		return fmt.Errorf("genome: %d trailing bytes", len(b))
	}
	*g = out
	return nil
}

// readVarints reads one count-prefixed zigzag-varint field. Every varint
// takes at least one byte, so a count beyond the bytes left is damage.
func readVarints(b []byte) ([]int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, errors.New("bad count")
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("count %d exceeds the %d bytes left", n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]int, n)
	for i := range out {
		v, k := binary.Varint(b)
		if k <= 0 || int64(int(v)) != v {
			return nil, nil, fmt.Errorf("gene %d: bad varint", i)
		}
		out[i] = int(v)
		b = b[k:]
	}
	return out, b, nil
}
