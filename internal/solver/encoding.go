package solver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/shop"
	"repro/internal/shopga"
)

// Encoding names (Spec.Encoding).
const (
	EncPerm = "perm" // job permutation (flow shop)
	EncSeq  = "seq"  // operation sequence with repetition
	EncKeys = "keys" // random keys decoded by Giffler-Thompson
	EncFlex = "flex" // machine assignment + operation sequence
)

// encoding bundles everything a model needs for one genome family: the
// bridge problem, the default operators, the genome->schedule decoder
// (which must agree with the problem's evaluation), and the checkpoint
// pack/unpack pair (unpack validates against the instance — see
// checkpoint.go).
type encoding[G any] struct {
	problem  core.Problem[G]
	ops      core.Operators[G]
	schedule func(G) *shop.Schedule
	pack     func(G) Genome
	unpack   func(Genome) (G, error)
}

// resolveEncoding picks the default encoding for the instance kind or
// validates an explicit choice against it.
func resolveEncoding(name string, in *shop.Instance) (string, error) {
	if name == "" {
		switch {
		case in.Kind.Flexible():
			return EncFlex, nil
		case in.Kind == shop.FlowShop:
			return EncPerm, nil
		default:
			return EncSeq, nil
		}
	}
	switch name {
	case EncPerm, EncSeq, EncKeys, EncFlex:
		// The kind-compatibility rule is shared with Spec.Validate.
		if err := checkEncodingKind(name, in.Kind); err != nil {
			return "", fmt.Errorf("solver: %w", err)
		}
	default:
		return "", fmt.Errorf("solver: unknown encoding %q", name)
	}
	return name, nil
}

// openRule resolves Params.Rule for open shop decoding.
func openRule(name string) (decode.OpenRule, error) {
	switch name {
	case "", "earliest":
		return decode.EarliestStart, nil
	case "lpt-task":
		return decode.LPTTask, nil
	case "lpt-machine":
		return decode.LPTMachine, nil
	default:
		return decode.EarliestStart, fmt.Errorf("solver: unknown open shop rule %q", name)
	}
}

// seqEncoding builds the []int-genome encoding (perm for flow shops, seq
// for everything else).
func seqEncoding(run *Run) (encoding[[]int], error) {
	in, obj := run.Instance, run.Objective
	pack, unpack := seqPackers(run)
	switch {
	case run.Encoding == EncPerm:
		return encoding[[]int]{
			problem:  shopga.FlowShopProblem(in, obj),
			ops:      shopga.PermOps(),
			schedule: func(g []int) *shop.Schedule { return decode.FlowShop(in, g) },
			pack:     pack, unpack: unpack,
		}, nil
	case in.Kind == shop.OpenShop:
		rule, err := openRule(run.Spec.Params.Rule)
		if err != nil {
			return encoding[[]int]{}, err
		}
		return encoding[[]int]{
			problem:  shopga.OpenShopProblem(in, rule, obj),
			ops:      shopga.SeqOps(in),
			schedule: func(g []int) *shop.Schedule { return decode.OpenShop(in, g, rule) },
			pack:     pack, unpack: unpack,
		}, nil
	case in.Kind.Flexible():
		// Sequence-only search over flexible shops: machines are fixed by
		// the greedy fastest-available assignment (decode.Any's rule).
		assign := decode.GreedyAssignment(in)
		return encoding[[]int]{
			problem:  shopga.FixedAssignmentProblem(in, assign, obj),
			ops:      shopga.SeqOps(in),
			schedule: func(g []int) *shop.Schedule { return decode.Flexible(in, assign, g, nil) },
			pack:     pack, unpack: unpack,
		}, nil
	default:
		return encoding[[]int]{
			problem:  shopga.JobShopProblem(in, obj),
			ops:      shopga.SeqOps(in),
			schedule: func(g []int) *shop.Schedule { return decode.JobShop(in, g) },
			pack:     pack, unpack: unpack,
		}, nil
	}
}

// keysEncoding builds the random-keys encoding decoded by the
// Giffler-Thompson active schedule builder.
func keysEncoding(run *Run) (encoding[[]float64], error) {
	in, obj := run.Instance, run.Objective
	pack, unpack := keysPackers(run)
	return encoding[[]float64]{
		problem:  shopga.GTProblem(in, obj),
		ops:      shopga.KeysOps(),
		schedule: func(g []float64) *shop.Schedule { return decode.GifflerThompson(in, g) },
		pack:     pack, unpack: unpack,
	}, nil
}

// flexEncoding builds the two-chromosome flexible shop encoding.
func flexEncoding(run *Run) (encoding[shopga.FlexGenome], error) {
	in, obj := run.Instance, run.Objective
	pack, unpack := flexPackers(run)
	return encoding[shopga.FlexGenome]{
		problem: shopga.FlexibleProblem(in, obj),
		ops:     shopga.FlexOps(in),
		schedule: func(g shopga.FlexGenome) *shop.Schedule {
			return decode.Flexible(in, g.Assign, g.Seq, nil)
		},
		pack: pack, unpack: unpack,
	}, nil
}

// decodeGenome rebuilds the schedule of a packed genome under the run's
// encoding, through the same strict unpack as a checkpoint resume: a
// damaged genome is an error, never a crash in a decode kernel.
func (run *Run) decodeGenome(g Genome) (*shop.Schedule, error) {
	switch run.Encoding {
	case EncKeys:
		enc, err := keysEncoding(run)
		return decodeWith(enc, err, g)
	case EncFlex:
		enc, err := flexEncoding(run)
		return decodeWith(enc, err, g)
	default: // EncSeq, EncPerm
		enc, err := seqEncoding(run)
		return decodeWith(enc, err, g)
	}
}

// decodeWith unpacks g through enc, or passes on err from building enc.
func decodeWith[G any](enc encoding[G], err error, g Genome) (*shop.Schedule, error) {
	if err != nil {
		return nil, err
	}
	gen, err := enc.unpack(g)
	if err != nil {
		return nil, err
	}
	return enc.schedule(gen), nil
}
