package bench

import (
	"fmt"
	"sort"
)

// Workload is one instance of a profile with its GA budget. The budget is
// shared by every model on the workload so their qualities compare equal
// work.
type Workload struct {
	Instance    string `json:"instance"`
	Pop         int    `json:"pop"`
	Generations int    `json:"generations"`
}

// Profile names a reproducible sweep: workloads x models x seeds. Every
// profile includes the serial model, the reference each parallel model's
// quality is read against.
type Profile struct {
	Name      string     `json:"name"`
	Models    []string   `json:"models"`
	Seeds     int        `json:"seeds"`
	Workloads []Workload `json:"workloads"`
}

// profiles is the committed catalogue. smoke is the CI gate (~seconds);
// nightly adds the remaining classics, bigger generated workloads and the
// epoch-structured models; full sweeps the lg sizes and every model.
var profiles = map[string]Profile{
	"smoke": {
		Name:   "smoke",
		Models: []string{"serial", "ms", "island"},
		Seeds:  3,
		Workloads: []Workload{
			{Instance: "ft06", Pop: 120, Generations: 200},
			{Instance: "ft10", Pop: 160, Generations: 400},
			{Instance: "la01", Pop: 120, Generations: 250},
			{Instance: "ta001", Pop: 160, Generations: 300},
		},
	},
	"nightly": {
		Name:   "nightly",
		Models: []string{"serial", "ms", "island", "cellular", "hybrid"},
		Seeds:  5,
		Workloads: []Workload{
			{Instance: "ft06", Pop: 120, Generations: 250},
			{Instance: "ft10", Pop: 200, Generations: 600},
			{Instance: "ft20", Pop: 200, Generations: 600},
			{Instance: "la01", Pop: 150, Generations: 300},
			{Instance: "la02", Pop: 150, Generations: 300},
			{Instance: "la03", Pop: 150, Generations: 300},
			{Instance: "la04", Pop: 150, Generations: 300},
			{Instance: "la05", Pop: 150, Generations: 300},
			{Instance: "la06", Pop: 150, Generations: 300},
			{Instance: "la11", Pop: 200, Generations: 400},
			{Instance: "la16", Pop: 200, Generations: 400},
			{Instance: "ta001", Pop: 200, Generations: 500},
			{Instance: "flow-md", Pop: 200, Generations: 400},
			{Instance: "open-md", Pop: 150, Generations: 300},
			{Instance: "fjs-sm", Pop: 150, Generations: 300},
			{Instance: "ffs-sm", Pop: 150, Generations: 300},
			{Instance: "job-lg", Pop: 200, Generations: 400},
		},
	},
	"full": {
		Name:   "full",
		Models: []string{"serial", "ms", "island", "cellular", "hybrid", "agents"},
		Seeds:  5,
		Workloads: []Workload{
			{Instance: "ft06", Pop: 120, Generations: 250},
			{Instance: "ft10", Pop: 200, Generations: 800},
			{Instance: "ft20", Pop: 200, Generations: 800},
			{Instance: "la01", Pop: 150, Generations: 400},
			{Instance: "la05", Pop: 150, Generations: 400},
			{Instance: "la06", Pop: 200, Generations: 400},
			{Instance: "la11", Pop: 200, Generations: 500},
			{Instance: "la16", Pop: 200, Generations: 500},
			{Instance: "ta001", Pop: 300, Generations: 800},
			{Instance: "flow-md", Pop: 200, Generations: 500},
			{Instance: "flow-lg", Pop: 200, Generations: 400},
			{Instance: "open-lg", Pop: 200, Generations: 400},
			{Instance: "fjs-md", Pop: 200, Generations: 400},
			{Instance: "fjs-lg", Pop: 200, Generations: 300},
			{Instance: "ffs-md", Pop: 200, Generations: 400},
			{Instance: "job-lg", Pop: 200, Generations: 500},
		},
	},
}

// ProfileByName resolves a profile from the catalogue.
func ProfileByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("bench: unknown profile %q (have %v)", name, ProfileNames())
	}
	return p, nil
}

// ProfileNames lists the catalogue, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
