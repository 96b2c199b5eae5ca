package job

import (
	"bytes"
	"encoding/hex"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/scenario"
)

// FuzzParseJournal fuzzes journal replay, the decoder that reads whatever a
// crash (or a damaged disk) left in the spool. Each input is checked as
// given and again with every line's checksum recomputed, so mutations reach
// the JSON record decoder instead of stopping at the CRC. Properties:
//
//   - no panic;
//   - valid ≤ len(raw);
//   - re-parsing raw[:valid] returns the same records and consumes all of it;
//   - an error comes back exactly when a bad line is followed by another
//     complete line (mid-file corruption, not a torn tail).
func FuzzParseJournal(f *testing.F) {
	var clean []byte
	for _, rec := range []*Record{
		{V: RecordVersion, Op: OpSubmit, ID: "a", Seed: 1, Spec: []byte(`{"x":1}`), Shards: 2, Client: "c"},
		{V: RecordVersion, Op: OpShard, ID: "a", Shard: &scenario.Shard{Index: 0, Count: 2}, Info: &scenario.GraphInfo{N: 4}, Slots: []scenario.SlotOutcome{{Slot: 0, Rounds: 3, Messages: 7}}},
		{V: RecordVersion, Op: OpDone, ID: "a"},
		{V: RecordVersion, Op: OpFail, ID: "b", Error: "max_rounds exceeded"},
		{V: RecordVersion, Op: OpCancel, ID: "c"},
	} {
		line, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		clean = append(clean, line...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-7]) // torn tail
	lines := bytes.SplitAfter(clean, []byte("\n"))
	f.Add(bytes.Join([][]byte{lines[0], []byte("00000000 not a record\n"), lines[1], lines[2]}, nil)) // bad line mid-file
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkJournal(t, raw)
		checkJournal(t, reframe(raw))
	})
}

func checkJournal(t *testing.T, raw []byte) {
	recs, valid, err := parseJournal(raw)

	// The reference reading: count complete lines and find the first one
	// that does not decode.
	complete := bytes.Count(raw, []byte("\n"))
	firstBad := -1
	for i, line := range bytes.SplitAfter(raw, []byte("\n"))[:complete] {
		if _, derr := decodeLine(line[:len(line)-1]); derr != nil {
			firstBad = i
			break
		}
	}
	corrupt := firstBad >= 0 && firstBad < complete-1
	if (err != nil) != corrupt {
		t.Fatalf("err = %v, but first bad line %d of %d complete lines:\n%q", err, firstBad, complete, raw)
	}
	if err != nil {
		return
	}
	if valid < 0 || valid > int64(len(raw)) {
		t.Fatalf("valid = %d outside [0, %d]", valid, len(raw))
	}
	again, valid2, err := parseJournal(raw[:valid])
	if err != nil || valid2 != valid || !reflect.DeepEqual(again, recs) {
		t.Fatalf("clean prefix reparses to %d records, valid=%d, err=%v; first pass %d records, valid=%d",
			len(again), valid2, err, len(recs), valid)
	}
}

// reframe rewrites each complete line's checksum to match its payload, so
// the line reaches the record decoder whatever its bytes.
func reframe(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if n := len(line) - 1; n >= 10 && line[n] == '\n' {
			var crc [4]byte
			sum := crc32.ChecksumIEEE(line[9:n])
			crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
			out = hex.AppendEncode(out, crc[:])
			out = append(out, ' ')
			line = line[9:]
		}
		out = append(out, line...)
	}
	return out
}
