package job

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"github.com/unilocal/unilocal/internal/scenario"
)

// RecordVersion versions the journal wire format. Replay refuses records
// from a different version instead of misinterpreting fields that moved.
const RecordVersion = 1

// Journal operations. The journal is an append-only log of job state
// transitions; replaying it from the top reconstructs every job's state.
const (
	// OpSubmit creates (or, after a terminal record, requeues) a job. It
	// carries the canonical spec, the seed and the shard partition count —
	// everything resuming the execution needs.
	OpSubmit = "submit"
	// OpShard checkpoints one completed shard: the graph header and the
	// shard's slot outcomes. This is the resume boundary — work before the
	// last OpShard is never recomputed.
	OpShard = "shard"
	// OpDone marks a job complete; its result files exist in the spool.
	OpDone = "done"
	// OpFail marks a job failed: with a deterministic error (re-running the
	// identical spec would fail identically), or, with Exhausted set, after
	// its transient retries ran out.
	OpFail = "fail"
	// OpCancel marks a job canceled by a client. Checkpointed shards stay
	// valid; a resubmission requeues the job and reuses them.
	OpCancel = "cancel"
)

// Record is one journal entry. Exactly the fields its Op needs are set.
type Record struct {
	V    int    `json:"v"`
	Op   string `json:"op"`
	ID   string `json:"id"`
	Seed int64  `json:"seed,omitempty"`
	// Spec is the canonical (re-marshalled) scenario spec (OpSubmit).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Shards is the job's shard partition count (OpSubmit). It is fixed at
	// submission so a resumed execution partitions the grid identically.
	Shards int `json:"shards,omitempty"`
	// Client is the submitting client's quota identity (OpSubmit).
	Client string `json:"client,omitempty"`
	// Shard / Info / Slots carry one checkpoint (OpShard).
	Shard *scenario.Shard        `json:"shard,omitempty"`
	Info  *scenario.GraphInfo    `json:"info,omitempty"`
	Slots []scenario.SlotOutcome `json:"slots,omitempty"`
	// Error is the failure message (OpFail).
	Error string `json:"error,omitempty"`
	// Exhausted marks an OpFail written when the job ran out of transient
	// retries: the failure says nothing about the spec, so a resubmission
	// requeues the job instead of replaying the error.
	Exhausted bool `json:"exhausted,omitempty"`
}

// encodeRecord frames one record for the journal: an 8-hex-digit CRC32
// (IEEE) of the JSON payload, a space, the payload, a newline. The checksum
// is what makes torn tails detectable: a record whose bytes were cut short
// by a crash — or whose sync never completed — fails its CRC and is
// discarded on replay instead of being half-parsed.
func encodeRecord(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(payload)+10)
	var crc [4]byte
	sum := crc32.ChecksumIEEE(payload)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	out = hex.AppendEncode(out, crc[:])
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}

// decodeLine parses one framed line (without its trailing newline).
func decodeLine(line []byte) (*Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("job: malformed journal line (%d bytes)", len(line))
	}
	crc, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return nil, fmt.Errorf("job: malformed journal checksum: %w", err)
	}
	payload := line[9:]
	want := uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("job: journal checksum mismatch (%08x, want %08x)", got, want)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("job: journal record: %w", err)
	}
	if rec.V != RecordVersion {
		return nil, fmt.Errorf("job: journal record version %d, want %d", rec.V, RecordVersion)
	}
	return &rec, nil
}

// parseJournal splits raw journal bytes into records, tolerating a torn
// tail. A final fragment without its newline, or a final complete line that
// fails its checksum (with at most such a fragment after it), is what a
// crash mid-append (or a short write the sync never covered) leaves behind:
// both are dropped, and valid reports how many bytes of clean prefix precede
// the damage. Damage anywhere else — a bad line with another complete line
// after it — cannot be a torn tail and is returned as a corruption error
// instead of being silently skipped.
func parseJournal(raw []byte) (recs []*Record, valid int64, err error) {
	off := int64(0)
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			// Torn tail: the final append never got its newline to disk.
			return recs, off, nil
		}
		rec, err := decodeLine(raw[:nl])
		if err != nil {
			if bytes.IndexByte(raw[nl+1:], '\n') < 0 {
				// The damaged line is the last complete one: a torn append
				// whose newline landed but whose middle didn't, followed at
				// most by an unterminated fragment. Drop both.
				return recs, off, nil
			}
			return nil, 0, fmt.Errorf("job: journal corrupt at byte %d: %w", off, err)
		}
		recs = append(recs, rec)
		raw = raw[nl+1:]
		off += int64(nl + 1)
	}
	return recs, off, nil
}
