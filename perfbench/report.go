package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// A failed operation enters as +Inf, so it misses every latency limit; a
// quantile that lands on one reports the largest finite float.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if math.IsInf(xs[i], 1) {
		return math.MaxFloat64
	}
	return xs[i]
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// minSamples is the fewest distinct bodies a latency percentile may rest
// on, so that ten of them lie beyond the 90th.
const minSamples = 100

// bodyStats sums up one distinct request body's repeats in the window.
type bodyStats struct {
	repeats int
	best    time.Duration // the fastest repeat, failed ones included
	failed  bool          // some repeat failed
	points  int
}

// bodies returns the window's repeats of each distinct body it sent.
func (r *runResult) bodies() map[int]bodyStats {
	out := make(map[int]bodyStats)
	for _, s := range r.samples {
		b, seen := out[s.body]
		if !seen || s.lat < b.best {
			b.best = s.lat
		}
		b.repeats++
		b.failed = b.failed || !s.ok
		b.points = s.points
		out[s.body] = b
	}
	return out
}

// latency returns the q-quantile, over the distinct bodies, of each one's
// fastest repeat in ms. The host's interference only ever slows an
// operation down, and every body is sent several times spread over the
// window, so the fastest repeat estimates the program's own latency for
// it. A body with a failed repeat enters as +Inf, so a failure misses
// every latency limit.
func (r *runResult) latency(q float64) float64 {
	var xs []float64
	for _, b := range r.bodies() {
		if b.failed {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(b.best))
		}
	}
	return quantile(xs, q)
}

// throughput returns the input points of the bodies whose every repeat
// succeeded, over the time one pass over all the bodies takes when each
// is served as fast as its fastest repeat: the rate one closed-loop
// connection sustains undisturbed.
func (r *runResult) throughput() float64 {
	var pts int
	var t time.Duration
	for _, b := range r.bodies() {
		t += b.best
		if !b.failed {
			pts += b.points
		}
	}
	return div(float64(pts), t.Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// okPoints sums the input points of the window's successful operations.
func (r *runResult) okPoints() int {
	n := 0
	for _, s := range r.samples {
		if s.ok {
			n += s.points
		}
	}
	return n
}

// endToEnd computes the eight end-to-end metrics of an untraced run. It
// fails when fewer than minSamples distinct bodies were sent.
func (r *runResult) endToEnd() (map[string]metric, error) {
	if n := len(r.bodies()); n < minSamples {
		return nil, fmt.Errorf("the window sent %d distinct bodies; a percentile needs %d", n, minSamples)
	}
	pts := float64(r.okPoints())
	return map[string]metric{
		"setup_s":              {setupSeconds(r.setup), "s"},
		"throughput_pts_per_s": {r.throughput(), "pts/s"},
		"latency_p50_ms":       {r.latency(0.5), "ms"},
		"latency_p90_ms":       {r.latency(0.9), "ms"},
		"server_cpu_us_per_pt": {float64(r.serverCPU) / float64(time.Microsecond) / pts, "us/pt"},
		"rss_peak_mb":          {float64(r.hwm) / (1 << 20), "MiB"},
		"error_ratio":          {r.q.errSum / float64(r.q.errN), "ratio"},
		"kept_ratio":           {r.q.keptSum / float64(r.q.keptN), "ratio"},
	}, nil
}

// setupSeconds is the lower quartile of the cold starts, in seconds.
func setupSeconds(starts []time.Duration) float64 {
	xs := make([]float64, len(starts))
	for i, d := range starts {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.25)
}

// loadgen returns the generator's health: CPU over wall time in the
// window, and the 90th percentile of how late operations were sent.
func (r *runResult) loadgen() (cpuUtil, lagP90 float64) {
	lags := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lags[i] = ms(s.lag)
	}
	return r.genCPU.Seconds() / r.wall.Seconds(), quantile(lags, 0.9)
}

// counter returns the window delta of a /metrics counter per unit.
func (r *runResult) counter(name string, per int) float64 {
	return (r.after[name] - r.before[name]) / float64(per)
}

// provenance describes the machine and program a run measured.
func provenance(root, spillDir string, serverProcs int) string {
	return fmt.Sprintf("source_sha256=%s go=%s nproc=%d gomaxprocs_server=%d gomaxprocs_generator=%d cpu=%q spill_fs=%s",
		treeHash(root), runtime.Version(), runtime.NumCPU(), serverProcs, runtime.GOMAXPROCS(0), cpuModel(), fsType(spillDir))
}

// treeHash identifies the measured source: a digest of every Go, module
// and policy file outside dot-directories. The checkout need not be a git
// repository, so the commit is identified by its content.
func treeHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".sh":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlay",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
