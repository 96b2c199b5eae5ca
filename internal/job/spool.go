package job

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// JobID derives a job's identity from its execution identity: the hex SHA-256
// of (seed, canonical spec), truncated to 24 hex digits. Because the ID is a
// content address, duplicate submissions — concurrent, sequential, or
// separated by a process restart — collapse onto one job, one execution and
// one stored result without any coordination beyond the spool itself.
func JobID(seed int64, canonicalSpec []byte) string {
	h := sha256.New()
	h.Write([]byte(strconv.FormatInt(seed, 10)))
	h.Write([]byte{0})
	h.Write(canonicalSpec)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// Hooks are the spool's durability primitives, injectable so the disk-fault
// test harness (internal/fabric/faultinject.Disk) can fail, short-write or
// fsync-error them on a seeded schedule. Zero fields select the real
// operations.
type Hooks struct {
	// Append writes one framed record to the open journal handle.
	Append func(f *os.File, p []byte) (int, error)
	// Sync fsyncs the journal after an append.
	Sync func(f *os.File) error
	// WriteFile atomically creates a temp file's content (result documents,
	// journal compaction): write everything, fsync, close.
	WriteFile func(name string, data []byte, perm fs.FileMode) error
}

func (h Hooks) fill() Hooks {
	if h.Append == nil {
		h.Append = func(f *os.File, p []byte) (int, error) { return f.Write(p) }
	}
	if h.Sync == nil {
		h.Sync = func(f *os.File) error { return f.Sync() }
	}
	if h.WriteFile == nil {
		h.WriteFile = func(name string, data []byte, perm fs.FileMode) error {
			f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
			if err != nil {
				return err
			}
			if _, err := f.Write(data); err != nil {
				f.Close()
				return err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	return h
}

// Spool is the crash-safe on-disk half of the job subsystem: an append-only,
// fsync'd journal of state transitions plus a content-addressed result
// store. Layout under dir:
//
//	journal.log      framed records (see journal.go), append-only
//	results/<id>.md  completed job documents, written atomically
//	results/<id>.json
//
// Durability contract: a record is in the journal only after its bytes and
// an fsync landed; result files are written to a temp name, fsync'd and
// renamed, so a reader never observes a half-written document; replay
// tolerates exactly one torn record at the tail (the append a crash cut
// short) and refuses corruption anywhere else. The Manager, not the Spool,
// owns what the records mean.
type Spool struct {
	dir   string
	hooks Hooks
	f     *os.File
}

const journalName = "journal.log"

// OpenSpool opens (creating if needed) the spool at dir, replays the
// journal, truncates a torn tail, and returns the replayed records in append
// order. The journal is then open for appends.
func OpenSpool(dir string, hooks Hooks) (*Spool, []*Record, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, nil, err
	}
	s := &Spool{dir: dir, hooks: hooks.fill()}
	path := s.journalPath()
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, valid, err := parseJournal(raw)
	if err != nil {
		return nil, nil, err
	}
	if valid < int64(len(raw)) {
		// Torn tail: cut the journal back to its clean prefix so the next
		// append starts at a record boundary.
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s.f = f
	return s, recs, nil
}

func (s *Spool) journalPath() string { return filepath.Join(s.dir, journalName) }

// Append journals one record durably: framed bytes, then fsync. An error
// means the record may or may not have reached the disk — the caller must
// treat the transition as not having happened (replay's torn-tail handling
// discards a half-written tail record).
func (s *Spool) Append(rec *Record) error {
	data, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := s.hooks.Append(s.f, data); err != nil {
		return fmt.Errorf("job: journal append: %w", err)
	}
	if err := s.hooks.Sync(s.f); err != nil {
		return fmt.Errorf("job: journal sync: %w", err)
	}
	return nil
}

// Compact rewrites the journal to exactly recs — the live state after a
// replay — via temp file, fsync and atomic rename, bounding journal growth
// across restarts (the spool's GC policy: checkpoints of finished jobs
// collapse to their terminal record, see DESIGN.md §2.10). The append handle
// is reopened on the new file.
func (s *Spool) Compact(recs []*Record) error {
	var data []byte
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		data = append(data, line...)
	}
	tmp := s.journalPath() + ".tmp"
	if err := s.hooks.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("job: journal compaction: %w", err)
	}
	if err := os.Rename(tmp, s.journalPath()); err != nil {
		return err
	}
	s.syncDir()
	old := s.f
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	return old.Close()
}

// WriteResult stores a completed job's documents content-addressed by the
// job ID: temp file, fsync, rename, for each format. Rewriting an existing
// result (a crash between the files landing and the done record) is
// harmless — the bytes are identical by the determinism contract.
func (s *Spool) WriteResult(id string, markdown, jsonDoc []byte) error {
	for _, part := range []struct {
		ext  string
		data []byte
	}{{".md", markdown}, {".json", jsonDoc}} {
		final := s.resultPath(id, part.ext)
		tmp := final + ".tmp"
		if err := s.hooks.WriteFile(tmp, part.data, 0o644); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("job: result write: %w", err)
		}
		if err := os.Rename(tmp, final); err != nil {
			return err
		}
	}
	s.syncDir()
	return nil
}

// ReadResult loads a stored result document; ext is ".md" or ".json".
func (s *Spool) ReadResult(id, ext string) ([]byte, error) {
	return os.ReadFile(s.resultPath(id, ext))
}

// HasResult reports whether both result documents exist.
func (s *Spool) HasResult(id string) bool {
	for _, ext := range []string{".md", ".json"} {
		if _, err := os.Stat(s.resultPath(id, ext)); err != nil {
			return false
		}
	}
	return true
}

func (s *Spool) resultPath(id, ext string) string {
	return filepath.Join(s.dir, "results", id+ext)
}

// syncDir best-effort fsyncs the spool directory so renames are durable.
// Failure is not fatal: the worst case is a rename replayed as missing after
// a crash, which recovery repairs by re-assembling from checkpoints.
func (s *Spool) syncDir() {
	for _, dir := range []string{s.dir, filepath.Join(s.dir, "results")} {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
}

// Close closes the journal handle.
func (s *Spool) Close() error { return s.f.Close() }
