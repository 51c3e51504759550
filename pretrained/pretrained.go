// Package pretrained ships ready-to-use RLTS policies so downstream users
// can simplify trajectories without running REINFORCE themselves — the
// moral equivalent of the checkpoint files research repositories publish.
//
// Eight policies are embedded: the online algorithm (RLTS) and the batch
// algorithm (RLTS+) for each of the four error measures, trained on the
// synthetic Geolife-profile repository at the default benchmark scale
// (see EXPERIMENTS.md). They are starting points, not oracles: for best
// results on your own data, fine-tune or retrain with rlts.Train on a
// sample of that data.
//
//	p, err := pretrained.Load(rlts.SED, rlts.Online)
//	simplified, err := p.Simplifier().Simplify(t, len(t)/10)
//
// Regenerate the embedded files with:
//
//	go run ./cmd/rlts-pretrain -o pretrained/data
package pretrained

import (
	"embed"
	"fmt"
	"strings"

	"rlts"
)

//go:embed data/*.json
var files embed.FS

// Load returns the embedded policy for a measure and variant. Only the
// Online and Plus variants are shipped; other variants return an error.
func Load(m rlts.Measure, v rlts.Variant) (*rlts.Policy, error) {
	name, err := fileName(m, v)
	if err != nil {
		return nil, err
	}
	f, err := files.Open(name)
	if err != nil {
		return nil, fmt.Errorf("pretrained: no embedded policy %s: %w", name, err)
	}
	defer f.Close()
	return rlts.LoadPolicy(f)
}

func fileName(m rlts.Measure, v rlts.Variant) (string, error) {
	var vtag string
	switch v {
	case rlts.Online:
		vtag = "online"
	case rlts.Plus:
		vtag = "plus"
	default:
		return "", fmt.Errorf("pretrained: only Online and Plus variants are embedded")
	}
	return "data/" + vtag + "_" + strings.ToLower(m.String()) + ".json", nil
}
