// Command rlts-pretrain regenerates the policy files embedded by the
// pretrained package: RLTS (online) and RLTS+ (batch) for each of the
// four error measures, trained on the synthetic Geolife profile at the
// default benchmark scale.
//
//	go run ./cmd/rlts-pretrain -o pretrained/data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/storage"
)

func main() {
	var (
		out     = flag.String("o", "pretrained/data", "output directory")
		count   = flag.Int("count", 60, "training trajectories")
		length  = flag.Int("len", 1000, "points per training trajectory")
		epochs  = flag.Int("epochs", 5, "training epochs")
		seed    = flag.Int64("seed", 1, "seed")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.CommandLogger(os.Stderr, "rlts-pretrain", false, *logJSON)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	ds := gen.New(gen.Geolife(), *seed).Dataset(*count, *length)
	for _, variant := range []struct {
		v    core.Variant
		name string
	}{{core.Online, "online"}, {core.Plus, "plus"}} {
		for _, m := range errm.Measures {
			opts := core.DefaultOptions(m, variant.v)
			to := core.DefaultTrainOptions()
			to.RL.Epochs = *epochs
			to.RL.Seed = *seed
			start := time.Now()
			trained, res, err := core.Train(ds, opts, to)
			if err != nil {
				fail(err)
			}
			path := filepath.Join(*out, variant.name+"_"+strings.ToLower(m.String())+".json")
			if err := storage.WriteAtomic(path, trained.Save); err != nil {
				fail(err)
			}
			logger.Info("policy written", "path", path, "transitions", res.StepsRun,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rlts-pretrain: %v\n", err)
	os.Exit(1)
}
