package server

// Session spill: the durability half of the sharded stream store.
//
// A spilled session is one file, <SpillDir>/<id>.sess, written atomically
// (temp file + fsync + rename, storage.WriteFileAtomic) and sealed with a
// CRC so a torn or bit-rotted file is detected before any of it is
// trusted. The envelope carries everything the streamer state codec
// (core.StreamerState) does not know about: the session id, the policy
// registry key, the sampling seed and the last-active time.
//
//	"RLSS"  magic (4 bytes)
//	u32     envelope version
//	u8+...  session id (len-prefixed, lower-case hex)
//	u8+...  policy key (len-prefixed, "algo/measure")
//	u64     sampling seed (two's-complement int64)
//	u64     last-active time, unix nanoseconds
//	u32+... streamer state (len-prefixed core.StreamerState encoding)
//	u8      [v2] repair flag; when 1:
//	u32+... [v2] repair state (len-prefixed traj.RepairState encoding)
//	u32     CRC-32 (IEEE) of every preceding byte
//
// Version 2 added the repair extension; version-1 files (no repair
// section) still decode, so spills written before the upgrade rehydrate
// unchanged.
//
// Ownership of a session's state is exclusive: either the shard map holds
// it (hot) or the spill file does (cold), never both. Spilling moves it
// to disk under the shard lock; rehydration decodes, resumes and deletes
// the file under the same lock, so no interleaving of requests can see a
// half-moved session. A session is therefore durable from its most recent
// spill — pushes accepted after the last spill die with the process,
// which is the same contract training checkpoints give batches.
//
// Failure handling is asymmetric by design. A spill WRITE failure is
// survivable: the session simply stays hot and rlts_stream_spill_errors_
// total increments. A spill READ failure (bad magic, CRC mismatch,
// truncation, a state the streamer rejects) is not: the bytes are moved
// aside to <id>.sess.corrupt for the operator, rlts_stream_spill_corrupt_
// total increments, and the session is reported gone (404) — never a
// crash, never a half-restored streamer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rlts/internal/codec"
	"rlts/internal/core"
	"rlts/internal/storage"
	"rlts/internal/traj"
)

const (
	spillMagic = "RLSS"
	// spillVersion is the envelope version written; spillMinVersion..
	// spillVersion are accepted on read (v1 predates the repair
	// extension).
	spillVersion    = 2
	spillMinVersion = 1
	spillExt        = ".sess"
	// corruptExt is appended to a quarantined spill file's name (after
	// spillExt, so the recovery scan and the reaper skip it).
	corruptExt = ".corrupt"

	maxSpillID  = 64
	maxSpillKey = 255
)

func defaultSpillWrite(path string, data []byte) error {
	return storage.WriteFileAtomic(path, data)
}

// validSpillID reports whether id can safely name a spill file: NON-hex
// ids (including path separators, dots, anything traversal-shaped) never
// touch the filesystem. Generated session ids are 16 lower-case hex
// chars, so this rejects nothing legitimate.
func validSpillID(id string) bool {
	if len(id) == 0 || len(id) > maxSpillID {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (m *streamManager) spillPath(id string) string {
	return filepath.Join(m.spillDir, id+spillExt)
}

// eachSpillFile calls fn for every file in dir named <id><ext> with a
// valid id: the store's own files, and the only ones it reads, counts or
// removes there. An unreadable or unset dir lists nothing.
func eachSpillFile(dir, ext string, fn func(id string, e fs.DirEntry)) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), ext); ok && !e.IsDir() && validSpillID(id) {
			fn(id, e)
		}
	}
}

// coldKept is Streamer.Snapshot's length read off a spilled state: the
// buffered entries, plus the last accepted point when it is not the
// buffered tail.
func coldKept(st *core.StreamerState) int {
	kept := len(st.Entries)
	if st.HasLast && (kept == 0 || st.Last.T > st.Entries[kept-1].P.T) {
		kept++
	}
	return kept
}

// sessionRecord is the decoded form of one spill file.
type sessionRecord struct {
	ID         string
	Key        string // policy registry key ("algo/measure")
	Seed       int64
	LastActive int64 // unix nanoseconds
	State      *core.StreamerState
	Repair     *traj.RepairState // nil for sessions without repair (and all v1 files)
}

// encodeSession produces the sealed envelope described atop this file.
func encodeSession(rec *sessionRecord) []byte {
	state := rec.State.AppendBinary(nil)
	b := make([]byte, 0, len(spillMagic)+32+len(rec.ID)+len(rec.Key)+len(state))
	b = append(b, spillMagic...)
	b = binary.LittleEndian.AppendUint32(b, spillVersion)
	b = append(b, byte(len(rec.ID)))
	b = append(b, rec.ID...)
	b = append(b, byte(len(rec.Key)))
	b = append(b, rec.Key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.LastActive))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(state)))
	b = append(b, state...)
	if rec.Repair != nil {
		b = append(b, 1)
		rs := rec.Repair.AppendBinary(nil)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
		b = append(b, rs...)
	} else {
		b = append(b, 0)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSession decodes and verifies a spill file. Like the streamer
// state decoder it is total: any malformed input — truncated, trailing
// garbage, CRC mismatch, implausible lengths — yields an error, never a
// panic or a partially-filled record.
func decodeSession(data []byte) (*sessionRecord, error) {
	if len(data) < len(spillMagic)+4+4 {
		return nil, fmt.Errorf("server: spill file too short (%d bytes)", len(data))
	}
	if string(data[:len(spillMagic)]) != spillMagic {
		return nil, fmt.Errorf("server: spill file has wrong magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("server: spill file checksum mismatch (%08x != %08x)", got, want)
	}
	d := codec.Reader{Buf: body, Off: len(spillMagic)}
	ver := d.U32()
	if d.Err == nil && (ver < spillMinVersion || ver > spillVersion) {
		return nil, fmt.Errorf("server: spill envelope version %d, want %d..%d",
			ver, spillMinVersion, spillVersion)
	}
	rec := &sessionRecord{}
	rec.ID = d.Str(maxSpillID)
	rec.Key = d.Str(maxSpillKey)
	rec.Seed = int64(d.U64())
	rec.LastActive = int64(d.U64())
	stateLen := int(d.U32())
	if d.Err != nil {
		return nil, fmt.Errorf("server: decode spill file: %w", d.Err)
	}
	if ver == 1 {
		// v1: the streamer state runs to the end of the body.
		if stateLen != len(body)-d.Off {
			return nil, fmt.Errorf("server: spill file declares %d state bytes, %d remain",
				stateLen, len(body)-d.Off)
		}
	}
	stateBytes := d.Take(stateLen)
	var repairBytes []byte
	if ver >= 2 {
		if d.Bool() {
			repairBytes = d.Take(int(d.U32()))
		}
		if d.Err == nil && d.Off != len(body) {
			d.Err = fmt.Errorf("%d trailing bytes", len(body)-d.Off)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("server: decode spill file: %w", d.Err)
	}
	if !validSpillID(rec.ID) {
		return nil, fmt.Errorf("server: spill file carries invalid session id %q", rec.ID)
	}
	if rec.Key == "" {
		return nil, fmt.Errorf("server: spill file carries empty policy key")
	}
	st, err := core.DecodeStreamerState(stateBytes)
	if err != nil {
		return nil, err
	}
	rec.State = st
	if repairBytes != nil {
		rs, err := traj.DecodeRepairState(repairBytes)
		if err != nil {
			return nil, err
		}
		rec.Repair = rs
	}
	return rec, nil
}

// spillSessionLocked moves one hot session to disk. The caller holds the
// shard lock; the session lock is taken here. Returns false when the
// write failed (the session stays hot and live — the ISSUE's degraded
// mode — and rlts_stream_spill_errors_total counts it).
func (m *streamManager) spillSessionLocked(sh *streamShard, sess *streamSession) bool {
	sess.mu.Lock()
	if sess.closed || sess.spilled {
		sess.mu.Unlock()
		return true
	}
	rec := &sessionRecord{
		ID:         sess.id,
		Key:        sess.key,
		Seed:       sess.seed,
		LastActive: sess.lastActive.Load(),
		State:      sess.str.ExportState(), // flushes metric deltas
	}
	if sess.rp != nil {
		rec.Repair = sess.rp.ExportState()
	}
	if err := m.spillWrite(m.spillPath(sess.id), encodeSession(rec)); err != nil {
		sess.mu.Unlock()
		m.spillErrors.Inc()
		return false
	}
	sess.spilled = true
	sess.str = nil // the spill file owns the state now; free the memory
	sess.mu.Unlock()
	delete(sh.sessions, sess.id)
	m.hot.Dec()
	m.spills.Inc()
	return true
}

// enforceBudgetLocked spills the coldest sessions of a shard until it is
// back under its hot budget. keep (the session the caller just inserted
// or rehydrated) is never chosen, so an old-but-just-touched session
// cannot be spilled back out in the same breath. Called under the shard
// lock; the disk write happens under it too — that is the point of
// sharding, a slow disk stalls 1/N of the keyspace, not all of it.
func (m *streamManager) enforceBudgetLocked(sh *streamShard, keep *streamSession) {
	if m.maxHot <= 0 {
		return
	}
	for len(sh.sessions) > m.maxHot {
		var victim *streamSession
		for _, s := range sh.sessions {
			if s == keep {
				continue
			}
			if victim == nil || s.lastActive.Load() < victim.lastActive.Load() {
				victim = s
			}
		}
		if victim == nil || !m.spillSessionLocked(sh, victim) {
			// Nothing spillable, or the disk is unhappy: stay over budget
			// rather than dropping live sessions.
			return
		}
	}
}

// quarantineLocked moves a spill file that failed to decode out of the
// store's namespace (best effort: rename to .corrupt, fall back to
// removal) and settles the accounting: the session it held is gone.
// Called under the shard lock.
func (m *streamManager) quarantineLocked(path string) {
	m.corrupt.Inc()
	removed := os.Rename(path, path+corruptExt) == nil
	if !removed {
		removed = os.Remove(path) == nil
	}
	if removed {
		m.active.Dec()
		m.total.Add(-1)
	}
}

// rehydrateLocked restores a spilled session into the shard map. Called
// with the shard lock held (all of a shard's spill-file I/O happens under
// its lock, which is what makes hot/cold ownership atomic). Returns
// (nil, nil) when no spill file exists or the session expired on disk,
// and a non-nil error when the file existed but could not be trusted —
// it has already been quarantined.
func (s *Server) rehydrateLocked(sh *streamShard, id string) (*streamSession, error) {
	sm := s.streams
	if !validSpillID(id) {
		return nil, nil
	}
	path := sm.spillPath(id)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		sm.quarantineLocked(path)
		return nil, err
	}
	rec, err := decodeSession(data)
	if err != nil || rec.ID != id {
		if err == nil {
			err = fmt.Errorf("server: spill file for %q carries session id %q", id, rec.ID)
		}
		sm.quarantineLocked(path)
		return nil, err
	}
	if sm.ttl > 0 && time.Now().UnixNano()-rec.LastActive > int64(sm.ttl) {
		// Expired while cold: the disk-tier equivalent of the janitor.
		if os.Remove(path) == nil {
			sm.evicted.Inc()
			sm.active.Dec()
			sm.total.Add(-1)
		}
		return nil, nil
	}
	p, ok := s.policies[rec.Key]
	if !ok {
		sm.quarantineLocked(path)
		return nil, fmt.Errorf("server: spilled session %q needs unregistered policy %q", id, rec.Key)
	}
	var rng *rand.Rand
	if rec.State.Sample {
		rng = rand.New(rand.NewSource(rec.Seed))
	}
	// Resume on a fresh policy clone for the same reason creates do: the
	// registered instance's forward scratch is shared, and sessions push
	// concurrently.
	str, err := core.ResumeStreamer(p.Policy.Clone(), p.Opts, rec.State, rng)
	if err != nil {
		sm.quarantineLocked(path)
		return nil, err
	}
	var rp *traj.Repairer
	if rec.Repair != nil {
		rp, err = traj.ResumeRepairer(rec.Repair)
		if err != nil {
			sm.quarantineLocked(path)
			return nil, err
		}
	}
	str.UseRegistry(sm.reg)
	sess := &streamSession{
		id:   id,
		key:  rec.Key,
		algo: p.Opts.Name(),
		seed: rec.Seed,
		str:  str,
		rp:   rp,
	}
	sess.touch()
	// Ownership moves back to memory: from here the file is stale, and
	// keeping it would let the reaper double-account the session.
	os.Remove(path)
	sh.sessions[id] = sess
	sm.hot.Inc()
	sm.rehydrated.Inc()
	sm.enforceBudgetLocked(sh, sess)
	return sess, nil
}

// closeSpilledLocked handles DELETE for a session that lives on disk:
// the state file answers seen/kept without paying for a policy resume.
// Called under the shard lock; reports true when the request was
// answered (closed, or corrupt-and-quarantined).
func (s *Server) closeSpilledLocked(w http.ResponseWriter, sh *streamShard, id string) bool {
	sm := s.streams
	if !validSpillID(id) {
		return false
	}
	path := sm.spillPath(id)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	if err != nil {
		sm.quarantineLocked(path)
	} else if rec, derr := decodeSession(data); derr != nil || rec.ID != id {
		sm.quarantineLocked(path)
	} else {
		if os.Remove(path) == nil {
			sm.closed.Inc()
			sm.active.Dec()
			sm.total.Add(-1)
		}
		writeJSON(w, map[string]interface{}{"closed": true, "seen": rec.State.Seen, "kept": coldKept(rec.State)})
		return true
	}
	httpError(w, http.StatusNotFound, codeStreamCorrupt,
		"streaming session %q had a corrupt spill file; it was quarantined", id)
	return true
}

// drain spills every hot session so a restart can rehydrate them —
// the SIGTERM path (Server.DrainStreams). Write failures leave those
// sessions hot (they die with the process) and are reported.
func (m *streamManager) drain() error {
	if m.spillDir == "" {
		return fmt.Errorf("server: cannot drain sessions, no spill directory configured")
	}
	failed := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			if !m.spillSessionLocked(sh, sess) {
				failed++
			}
		}
		sh.mu.Unlock()
	}
	if failed > 0 {
		return fmt.Errorf("server: %d streaming sessions failed to spill and will not survive restart", failed)
	}
	return nil
}

// DrainStreams spills every live streaming session to Config.SpillDir so
// a restarted server (same spill directory) rehydrates them on their next
// push or snapshot, bit-identical. Call it after the HTTP listener has
// drained (no in-flight requests) and before process exit.
func (s *Server) DrainStreams() error { return s.streams.drain() }

// recoveryScan runs once at startup: it counts the spill files a previous
// process left behind so the session gauges and the create cap see them
// from the first request. Files are decoded lazily, on first touch.
func (m *streamManager) recoveryScan() {
	if err := os.MkdirAll(m.spillDir, 0o755); err != nil {
		return
	}
	n := 0
	eachSpillFile(m.spillDir, spillExt, func(string, fs.DirEntry) { n++ })
	if n > 0 {
		m.recovered.Add(uint64(n))
		m.active.Add(float64(n))
		m.total.Add(int64(n))
	}
}

// spillReaper is the disk tier's janitor: spill files idle past the TTL
// (by mtime — a spill is written when the session was last worth keeping
// hot, so mtime ≥ last activity) are removed. It shares the in-memory
// janitor's cadence.
func (m *streamManager) spillReaper() {
	t := time.NewTicker(m.janitorTick())
	defer t.Stop()
	for {
		select {
		case <-m.stopJanitor:
			return
		case now := <-t.C:
			m.reapSpilled(now)
		}
	}
}

func (m *streamManager) reapSpilled(now time.Time) {
	eachSpillFile(m.spillDir, spillExt, func(id string, e fs.DirEntry) {
		info, err := e.Info()
		if err != nil || now.Sub(info.ModTime()) <= m.ttl {
			return
		}
		path := m.spillPath(id)
		sh := m.shardFor(id)
		sh.mu.Lock()
		// Under the shard lock the hot/cold ownership is stable: skip if
		// the session rehydrated since the ReadDir, and re-stat in case
		// the file was re-spilled fresh in the meantime.
		if _, hot := sh.sessions[id]; !hot {
			if cur, err := os.Stat(path); err == nil && now.Sub(cur.ModTime()) > m.ttl {
				if os.Remove(path) == nil {
					m.evicted.Inc()
					m.active.Dec()
					m.total.Add(-1)
				}
			}
		}
		sh.mu.Unlock()
	})
}
