// Package store is the durable half of the multi-tenant catalog: versioned,
// fingerprint-addressed serialization of tenant snapshots to a data
// directory, plus a write-ahead log of catalog mutations. The catalog
// appends a WAL record for every register / re-register / deregister /
// evict, fsynced before Append returns, and persists each tenant's
// snapshot (schema, demo pool, trained classifier and predictor) when its
// async build completes; on the next Open the WAL is replayed into the
// live tenant set so a restarted server publishes every previously-built
// tenant immediately and lazily loads the heavy snapshot bytes on first
// lookup — no warming stampede, no re-training.
//
// On-disk layout:
//
//	<dir>/wal.log                      crc-framed JSON lines, append-only
//	<dir>/snapshots/<key>-v<V>-<FP>.snap   one file per live tenant version
//
// Snapshot files are addressed by (tenant key, version, schema
// fingerprint) and carry a magic header, a format version and a CRC32 over
// the gob payload, so a half-written or bit-rotted file is detected at
// load rather than deserialized into a half-built tenant. All writes are
// atomic (temp file + rename); the WAL tolerates a torn tail by truncating
// at the first damaged record. Open compacts the log when dead history
// dominates and garbage-collects snapshot files that no live tenant
// addresses.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schema"
)

// Snapshot file framing: magic (8 bytes, embeds the format generation),
// big-endian format version (2 bytes), big-endian CRC32 of the payload
// (4 bytes), gob payload.
const (
	snapMagic     = "NLSNAP\x00\x01"
	snapFormatVer = 1
)

// ErrCorrupt is returned by LoadSnapshot for a file that fails magic,
// version, checksum or addressing verification.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// ErrNoSnapshot is returned by LoadSnapshot when no file exists for the
// requested (key, version, fingerprint) address.
var ErrNoSnapshot = errors.New("store: no snapshot")

// Options parameterizes Open.
type Options struct {
	// Instance, when set, puts the store in shared mode: several processes
	// (shards behind a router) use one data directory, each appending to
	// its own wal-<instance>.log while the snapshots/ directory is common
	// ground. Shared mode changes two behaviours: Open no longer
	// garbage-collects snapshot files its own WAL does not address (they
	// belong to other shards), and deletes are reserved for explicit
	// deregistration (see the catalog) — this is what lets a tenant's
	// trained state be adopted by whichever shard the ring places it on
	// after resharding, with no re-training.
	Instance string
}

// Demo is one persisted demonstration (raw NL + canonical SQL text). Demos
// are stored as text and re-parsed on load, keeping the file format
// independent of the SQL IR's in-memory representation.
type Demo struct {
	NL  string
	SQL string
}

// TenantSnapshot is the serialized tenant state: everything needed to
// republish a tenant without re-training. Classifier and Predictor are the
// models' own binary encodings; both are empty for a tenant persisted at
// registration whose build had not completed (recovery re-trains those).
type TenantSnapshot struct {
	Name        string
	Version     int
	Fingerprint uint64
	Registered  time.Time
	Built       time.Time
	DB          *schema.Database
	Demos       []Demo
	Classifier  []byte
	Predictor   []byte
}

// HasModels reports whether the snapshot carries trained models.
func (t *TenantSnapshot) HasModels() bool {
	return len(t.Classifier) > 0 && len(t.Predictor) > 0
}

// Stats is the store's observability snapshot, exported on /v1/metrics as
// store_*.
type Stats struct {
	Loads        int64
	LoadFailures int64
	Saves        int64
	SaveFailures int64
	Deletes      int64
	BytesLoaded  int64
	BytesSaved   int64
	// WALAppends counts durable appends; every one was fsynced, so it
	// equals WALSyncs. WALAppendFailures counts appends that returned an
	// error (the record may not have reached stable storage).
	WALAppends        int64
	WALSyncs          int64
	WALAppendFailures int64
	WALReplayed       int64
	Compactions       int64
	Recovered         int64
	RecoveryMs        float64
	Snapshots         int64
	SnapshotB         int64
}

type snapMeta struct {
	version int
	fp      uint64
	size    int64
}

// Store is a single-writer tenant state store. The catalog serializes its
// mutations, so Store methods take one internal mutex and never block the
// catalog's lock-free read path.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	wal    *os.File
	walLen int64
	closed bool
	files  map[string]snapMeta // key -> live snapshot file
	live   []RecoveredTenant

	loads, loadFailures, saves, saveFailures atomic.Int64
	deletes, bytesLoaded, bytesSaved         atomic.Int64
	walAppends, walSyncs, walAppendFailures  atomic.Int64
	walReplayed, compactions, recoveryNs     atomic.Int64
}

// Open creates (or reopens) the data directory, replays the WAL into the
// live tenant set, truncates any torn tail, garbage-collects snapshot
// files no live tenant addresses, and compacts the log when dead history
// dominates. The replay cost is recorded as Stats().RecoveryMs.
func Open(dir string, opts Options) (*Store, error) {
	if err := validInstance(opts.Instance); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "snapshots"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		files: map[string]snapMeta{},
	}
	start := time.Now()
	data, err := os.ReadFile(s.walPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read wal: %w", err)
	}
	recs, good := decodeWAL(data)
	s.walReplayed.Store(int64(len(recs)))
	liveMap := foldRecords(recs)
	for _, t := range liveMap {
		s.live = append(s.live, *t)
	}
	sort.Slice(s.live, func(i, j int) bool { return s.live[i].Key < s.live[j].Key })

	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	if int64(len(data)) > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek wal: %w", err)
	}
	s.wal = f
	s.walLen = good

	if err := s.scanSnapshots(liveMap); err != nil {
		f.Close()
		return nil, err
	}
	// Compact when the log is mostly dead history: more than a few records
	// per live tenant means restarts replay churn that no longer matters.
	if len(recs) > 4*len(liveMap)+64 {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.recoveryNs.Store(int64(time.Since(start)))
	return s, nil
}

// validInstance restricts instance names to filename-safe characters —
// the name lands verbatim in wal-<instance>.log.
func validInstance(name string) error {
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.' {
			continue
		}
		return fmt.Errorf("store: instance name %q: only letters, digits, '-', '_' and '.' allowed", name)
	}
	return nil
}

// Shared reports whether the store runs in shared (multi-instance) mode.
func (s *Store) Shared() bool { return s.opts.Instance != "" }

func (s *Store) walPath() string {
	if s.opts.Instance != "" {
		return filepath.Join(s.dir, "wal-"+s.opts.Instance+".log")
	}
	return filepath.Join(s.dir, "wal.log")
}

func (s *Store) snapPath(key string, version int, fp uint64) string {
	return filepath.Join(s.dir, "snapshots", fmt.Sprintf("%s-v%d-%016x.snap", key, version, fp))
}

// scanSnapshots indexes the snapshot files addressed by live tenants and
// deletes orphans (stale versions, deregistered tenants, leftover temp
// files from an interrupted write). In shared mode a file this instance's
// WAL does not address is another shard's tenant, not an orphan — only
// interrupted .tmp leftovers are swept.
func (s *Store) scanSnapshots(live map[string]*RecoveredTenant) error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "snapshots"))
	if err != nil {
		return fmt.Errorf("store: scan snapshots: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		full := filepath.Join(s.dir, "snapshots", name)
		key, version, fp, ok := parseSnapName(name)
		t := live[key]
		if !ok || t == nil || t.Version != version || t.Fingerprint != fp {
			if !s.Shared() || strings.HasSuffix(name, ".tmp") {
				os.Remove(full)
			}
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.files[key] = snapMeta{version: version, fp: fp, size: info.Size()}
	}
	return nil
}

// FindSnapshot scans the shared snapshots directory for the newest
// persisted version of key, regardless of which instance wrote it. This is
// the adoption path: after resharding, the shard a tenant now hashes to
// has no WAL history for it, but the previous owner's snapshot file is
// sitting in the common directory. Returns the address to pass to
// LoadSnapshot.
func (s *Store) FindSnapshot(key string) (version int, fp uint64, ok bool) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "snapshots"))
	if err != nil {
		return 0, 0, false
	}
	for _, e := range entries {
		k, v, f, valid := parseSnapName(e.Name())
		if !valid || k != key {
			continue
		}
		if !ok || v > version {
			version, fp, ok = v, f, true
		}
	}
	return version, fp, ok
}

func parseSnapName(name string) (key string, version int, fp uint64, ok bool) {
	if !strings.HasSuffix(name, ".snap") {
		return "", 0, 0, false
	}
	name = strings.TrimSuffix(name, ".snap")
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(name[i+1:], "%016x", &fp); err != nil {
		return "", 0, 0, false
	}
	name = name[:i]
	i = strings.LastIndex(name, "-v")
	if i < 0 {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(name[i+2:], "%d", &version); err != nil {
		return "", 0, 0, false
	}
	return name[:i], version, fp, true
}

// Recovered returns the live tenant set replayed at Open, sorted by key.
func (s *Store) Recovered() []RecoveredTenant {
	out := make([]RecoveredTenant, len(s.live))
	copy(out, s.live)
	return out
}

// Append logs one catalog mutation and fsyncs the WAL before it returns,
// so an accepted record survives a crash. The record order must match the
// catalog's mutation order (the catalog calls Append under its writer
// mutex). Every error return counts as a WAL append failure.
func (s *Store) Append(r Record) (err error) {
	defer func() {
		if err != nil {
			s.walAppendFailures.Add(1)
		}
	}()
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if _, err := s.wal.Write(line); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	s.walLen += int64(len(line))
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	s.walSyncs.Add(1)
	s.walAppends.Add(1)
	return nil
}

// SaveSnapshot persists a tenant snapshot atomically under its
// (key, version, fingerprint) address, replacing any previous file for the
// key. It returns the file size, the unit of the catalog's memory-budget
// accounting.
func (s *Store) SaveSnapshot(key string, t *TenantSnapshot) (int64, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(t); err != nil {
		s.saveFailures.Add(1)
		return 0, fmt.Errorf("store: encode snapshot %s: %w", key, err)
	}
	buf := make([]byte, 0, payload.Len()+14)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint16(buf, snapFormatVer)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	buf = append(buf, payload.Bytes()...)

	final := s.snapPath(key, t.Version, t.Fingerprint)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		s.saveFailures.Add(1)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		s.saveFailures.Add(1)
		return 0, fmt.Errorf("store: publish snapshot %s: %w", key, err)
	}
	size := int64(len(buf))
	s.mu.Lock()
	if old, ok := s.files[key]; ok && (old.version != t.Version || old.fp != t.Fingerprint) {
		os.Remove(s.snapPath(key, old.version, old.fp))
	}
	s.files[key] = snapMeta{version: t.Version, fp: t.Fingerprint, size: size}
	s.mu.Unlock()
	s.saves.Add(1)
	s.bytesSaved.Add(size)
	return size, nil
}

// LoadSnapshot reads and verifies the snapshot at the given address.
func (s *Store) LoadSnapshot(key string, version int, fp uint64) (*TenantSnapshot, int64, error) {
	data, err := os.ReadFile(s.snapPath(key, version, fp))
	if err != nil {
		s.loadFailures.Add(1)
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %s v%d", ErrNoSnapshot, key, version)
		}
		return nil, 0, fmt.Errorf("store: read snapshot %s: %w", key, err)
	}
	if len(data) < len(snapMagic)+6 || string(data[:len(snapMagic)]) != snapMagic {
		s.loadFailures.Add(1)
		return nil, 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, key)
	}
	rest := data[len(snapMagic):]
	if v := binary.BigEndian.Uint16(rest); v != snapFormatVer {
		s.loadFailures.Add(1)
		return nil, 0, fmt.Errorf("%w: %s: unsupported format version %d", ErrCorrupt, key, v)
	}
	want := binary.BigEndian.Uint32(rest[2:])
	payload := rest[6:]
	if crc32.ChecksumIEEE(payload) != want {
		s.loadFailures.Add(1)
		return nil, 0, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, key)
	}
	var t TenantSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&t); err != nil {
		s.loadFailures.Add(1)
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	if t.Version != version || t.Fingerprint != fp {
		s.loadFailures.Add(1)
		return nil, 0, fmt.Errorf("%w: %s: file addressed v%d/%016x but carries v%d/%016x",
			ErrCorrupt, key, version, fp, t.Version, t.Fingerprint)
	}
	s.loads.Add(1)
	s.bytesLoaded.Add(int64(len(data)))
	return &t, int64(len(data)), nil
}

// SnapshotSize reports the persisted size for a key (0, false when none).
func (s *Store) SnapshotSize(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[key]
	return m.size, ok
}

// DeleteTenant removes the key's snapshot file (deregister / evict).
func (s *Store) DeleteTenant(key string) {
	s.mu.Lock()
	m, ok := s.files[key]
	if ok {
		delete(s.files, key)
	}
	s.mu.Unlock()
	if ok {
		os.Remove(s.snapPath(key, m.version, m.fp))
		s.deletes.Add(1)
	}
}

// compactLocked rewrites the WAL with only the live tenants' register and
// built records. Called from Open before concurrent use, so it may touch
// s.wal without the mutex.
func (s *Store) compactLocked() error {
	var buf bytes.Buffer
	for _, t := range s.live {
		reg := Record{Op: OpRegister, Key: t.Key, Name: t.Name, Version: t.Version, Unix: t.RegisteredUnix}
		reg.SetFingerprint(t.Fingerprint)
		line, err := encodeRecord(reg)
		if err != nil {
			return err
		}
		buf.Write(line)
		if t.Built {
			built := Record{Op: OpBuilt, Key: t.Key, Version: t.Version}
			built.SetFingerprint(t.Fingerprint)
			line, err := encodeRecord(built)
			if err != nil {
				return err
			}
			buf.Write(line)
		}
	}
	tmp := s.walPath() + ".tmp"
	if err := writeFileSync(tmp, buf.Bytes()); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.walPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish compacted wal: %w", err)
	}
	old := s.wal
	f, err := os.OpenFile(s.walPath(), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen compacted wal: %w", err)
	}
	s.wal = f
	s.walLen = int64(buf.Len())
	old.Close()
	s.compactions.Add(1)
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	files := int64(len(s.files))
	var bytes int64
	for _, m := range s.files {
		bytes += m.size
	}
	s.mu.Unlock()
	return Stats{
		Loads:             s.loads.Load(),
		LoadFailures:      s.loadFailures.Load(),
		Saves:             s.saves.Load(),
		SaveFailures:      s.saveFailures.Load(),
		Deletes:           s.deletes.Load(),
		BytesLoaded:       s.bytesLoaded.Load(),
		BytesSaved:        s.bytesSaved.Load(),
		WALAppends:        s.walAppends.Load(),
		WALSyncs:          s.walSyncs.Load(),
		WALAppendFailures: s.walAppendFailures.Load(),
		WALReplayed:       s.walReplayed.Load(),
		Compactions:       s.compactions.Load(),
		Recovered:         int64(len(s.live)),
		RecoveryMs:        float64(s.recoveryNs.Load()) / 1e6,
		Snapshots:         files,
		SnapshotB:         bytes,
	}
}

// Close flushes and closes the WAL. Idempotent; called after the catalog
// has drained (the catalog never appends after its own Close).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
