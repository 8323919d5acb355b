package orfdisk

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// legacyObserveRecord hand-builds a fixed-width v1 observe record (the
// kind-1 writer is gone; recovery still reads old WALs).
func legacyObserveRecord(obs FleetObservation) []byte {
	buf := []byte{recObserve}
	buf = appendString(buf, obs.Model)
	buf = appendString(buf, obs.Serial)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(obs.Day)))
	if obs.Failed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(obs.Values)))
	for _, v := range obs.Values {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// sameRecord compares two decoded records, float values by bit pattern
// (NaN payloads and -0 must survive a round trip too).
func sameRecord(a, b walRecord) bool {
	if a.kind != b.kind || a.obs.Model != b.obs.Model || a.obs.Serial != b.obs.Serial ||
		a.obs.Day != b.obs.Day || a.obs.Failed != b.obs.Failed ||
		len(a.obs.Values) != len(b.obs.Values) || !reflect.DeepEqual(a.cur, b.cur) {
		return false
	}
	for i, v := range a.obs.Values {
		if math.Float64bits(v) != math.Float64bits(b.obs.Values[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRecord: no input makes the WAL record decoder panic, and
// every record it accepts survives a round trip through the encoder.
func FuzzDecodeRecord(f *testing.F) {
	obs := FleetObservation{Model: "ST4000DM000", Observation: Observation{
		Serial: "Z30", Day: 812, Failed: true,
		Values: []float64{0, 1, 253, -4, 0.5, math.NaN(), math.Inf(-1), -0.0, 1e300},
	}}
	f.Add(legacyObserveRecord(obs))
	f.Add(appendRecord(nil, walRecord{kind: recRetire, obs: obs}))
	f.Add(appendRecord(nil, walRecord{kind: recObserveV2, obs: obs}))
	f.Add(appendRecord(nil, walRecord{kind: recObserveBF, obs: obs}))
	f.Add(appendRecord(nil, walRecord{kind: recCursor, cur: &BackfillCursor{
		Day: 40, Rows: 400, Files: []BackfillFilePos{{Name: "a.csv", Rows: 400, Off: 77_000}},
	}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		if rec.kind == recObserve {
			rec.kind = recObserveV2 // v1 is decode-only; the same body re-encodes as v2
		}
		back, err := decodeRecord(appendRecord(nil, rec))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !sameRecord(rec, back) {
			t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", back, rec)
		}
	})
}

// FuzzParseBackfillCursorFile: no cursor-file content makes recovery
// panic, and every file it accepts survives a round trip through the
// encoder.
func FuzzParseBackfillCursorFile(f *testing.F) {
	f.Add(appendBackfillCursorFile(nil, 7, 3, BackfillCursor{
		Day: 33, Rows: 300, Files: []BackfillFilePos{{Name: "q0.csv", Rows: 300, Off: 61_234}},
	}))
	f.Add(appendBackfillCursorFile(nil, 0, 0, BackfillCursor{}))
	f.Add(cursorFileWithoutRecord())
	f.Fuzz(func(t *testing.T, b []byte) {
		cur, seq, rowsAfter, err := parseBackfillCursorFile(b)
		if err != nil {
			return
		}
		cur2, seq2, rowsAfter2, err := parseBackfillCursorFile(appendBackfillCursorFile(nil, seq, rowsAfter, cur))
		if err != nil {
			t.Fatalf("re-encoded cursor file does not parse: %v", err)
		}
		if seq2 != seq || rowsAfter2 != rowsAfter || !reflect.DeepEqual(cur2, cur) {
			t.Fatalf("round trip changed the cursor file: (%+v, %d, %d) -> (%+v, %d, %d)",
				cur, seq, rowsAfter, cur2, seq2, rowsAfter2)
		}
	})
}

// cursorFileWithoutRecord is a cursor file cut right after its header:
// magic, covered seq and rowsAfter, but no cursor record.
func cursorFileWithoutRecord() []byte {
	b := append([]byte(cursorMagic), make([]byte, 8)...)
	return binary.AppendUvarint(b, 5)
}

// TestCursorFileWithoutRecordFailsRecovery is the regression test for a
// panic: the parser used to format b[0] while reporting that b was
// empty, so a cursor file holding only its header crashed NewEngine
// instead of failing it.
func TestCursorFileWithoutRecordFailsRecovery(t *testing.T) {
	if _, _, _, err := parseBackfillCursorFile(cursorFileWithoutRecord()); err == nil {
		t.Fatal("cursor file without a cursor record parsed")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cursorFileName), cursorFileWithoutRecord(), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Predictor: engineTestConfig(), DataDir: dir})
	if err == nil {
		eng.Close()
		t.Fatal("NewEngine accepted a cursor file without a cursor record")
	}
}
