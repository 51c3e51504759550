package main

import (
	"math/rand"

	"rlts/internal/gen"
	"rlts/internal/traj"
)

// stream_devices is replayed in process only, as the home of the
// streaming layers: its end-to-end figures did not hold steady on the
// 2-core VM (see README.md), so the command has no open-loop run of it.
const (
	streamDevices = 2000 // sessions created before the replay
	// streamHot is the hot-session budget: below the device count, so
	// about a fifth of the touches rehydrate one session and spill another.
	streamHot      = 300
	streamW        = 64
	streamZipfS    = 1.1  // device popularity exponent
	streamWarmOps  = 2400 // operations replayed untimed before the timed ones
	streamSnapEach = 10   // every tenth operation is a snapshot
	streamMinPush  = 8
	streamMaxPush  = 32
)

// streamOp is one push or snapshot of one device.
type streamOp struct {
	device   int
	snapshot bool
	body     []byte // push body; nil for a snapshot
	// from and to delimit the fixes of the device's trajectory this push
	// carries; a snapshot has from == to == the prefix pushed before it.
	from, to int
}

// streamPlan is the stream_devices operation sequence: streamDevices
// session creates, then seeded pushes and snapshots, the first warm of
// them replayed untimed.
type streamPlan struct {
	create []byte
	ops    []streamOp
	warm   int
	trajs  []traj.Trajectory // per device: every fix it is sent, in order
}

// buildStream generates the operation sequence: devices drawn from a
// seeded Zipf popularity, each push carrying the device's next 8-32
// fixes, every tenth operation a snapshot.
func buildStream(seed int64) (*streamPlan, error) {
	r := rand.New(rand.NewSource(seed))
	create, err := marshal(&streamCreateRequest{Algorithm: "rlts", Measure: "SED", W: streamW})
	if err != nil {
		return nil, err
	}
	p := &streamPlan{create: create, warm: streamWarmOps}
	zipf := rand.NewZipf(r, streamZipfS, 1, streamDevices-1)
	byRank := r.Perm(streamDevices)
	need := make([]int, streamDevices)
	p.ops = make([]streamOp, streamWarmOps+streamReplayOps)
	for i := range p.ops {
		op := &p.ops[i]
		op.device = byRank[zipf.Uint64()]
		op.from = need[op.device]
		if i%streamSnapEach == streamSnapEach-1 {
			op.snapshot = true
		} else {
			need[op.device] += streamMinPush + r.Intn(streamMaxPush-streamMinPush+1)
		}
		op.to = need[op.device]
		if op.snapshot {
			op.from = op.to
		}
	}
	p.trajs = make([]traj.Trajectory, streamDevices)
	for d, k := range need {
		seed := r.Int63()
		if k > 0 {
			p.trajs[d] = gen.New(gen.Geolife(), seed).Trajectory(k)
		}
	}
	for i := range p.ops {
		op := &p.ops[i]
		if !op.snapshot {
			if op.body, err = marshal(&pushRequest{Points: gen.Raw(p.trajs[op.device][op.from:op.to])}); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}
