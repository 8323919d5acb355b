package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameRecord encodes one record exactly as the log writes it.
func frameRecord(buf []byte, seq uint64, payload []byte) []byte {
	off := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.ChecksumIEEE(buf[off+8:]))
	return buf
}

// bigSegment writes one segment spanning several scan buffers, with
// record sizes that do not divide the buffer, and returns its path, the
// payloads and each record's starting offset.
func bigSegment(t *testing.T, dir string) (path string, payloads [][]byte, offs []int64) {
	t.Helper()
	w := openTest(t, dir, Options{SegmentBytes: 8 << 20})
	var off int64
	for i := 0; off < 3*scanBufferBytes; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 700+(i*37)%500)
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
		offs = append(offs, off)
		off += int64(headerSize + len(p))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segName(1)), payloads, offs
}

// recordAcross returns the index of the first record that starts
// before offset b and ends after it.
func recordAcross(t *testing.T, payloads [][]byte, offs []int64, b int64) int {
	t.Helper()
	for i, o := range offs {
		if o < b && o+int64(headerSize+len(payloads[i])) > b {
			return i
		}
	}
	t.Fatalf("no record straddles offset %d", b)
	return -1
}

// assertPrefix opens the damaged log and checks that Open cut the file
// to exactly offs[k] and that Replay yields exactly records 0..k-1.
func assertPrefix(t *testing.T, dir, path string, payloads [][]byte, offs []int64, k int) {
	t.Helper()
	w := openTest(t, dir, Options{SegmentBytes: 8 << 20})
	defer w.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != offs[k] {
		t.Fatalf("Open left %d bytes, want the valid prefix of %d", fi.Size(), offs[k])
	}
	seqs, got := collect(t, w)
	if len(got) != k {
		t.Fatalf("replayed %d records, want %d", len(got), k)
	}
	for i := range got {
		if seqs[i] != uint64(i+1) || got[i] != string(payloads[i]) {
			t.Fatalf("record %d: seq %d, payload differs", i, seqs[i])
		}
	}
	if next := w.NextSeq(); next != uint64(k+1) {
		t.Fatalf("NextSeq %d, want %d", next, k+1)
	}
}

// TestScanTornRecordAcrossBuffer tears the record that straddles the
// first scan-buffer boundary: its header and the start of its payload
// sit in the first buffer fill, the cut falls in the second.
func TestScanTornRecordAcrossBuffer(t *testing.T) {
	dir := t.TempDir()
	path, payloads, offs := bigSegment(t, dir)
	k := recordAcross(t, payloads, offs, scanBufferBytes)
	if err := os.Truncate(path, scanBufferBytes+100); err != nil {
		t.Fatal(err)
	}
	if offs[k]+int64(headerSize+len(payloads[k])) <= scanBufferBytes+100 {
		t.Fatalf("cut at %d does not tear record %d", scanBufferBytes+100, k)
	}
	assertPrefix(t, dir, path, payloads, offs, k)
}

// TestScanCRCFlipPastFirstBuffer corrupts one payload byte of a record
// that lies wholly beyond the first buffer fill: the scan must stop at
// that record and Open must cut everything from it on.
func TestScanCRCFlipPastFirstBuffer(t *testing.T) {
	dir := t.TempDir()
	path, payloads, offs := bigSegment(t, dir)
	k := recordAcross(t, payloads, offs, 2*scanBufferBytes) + 1
	if offs[k] <= scanBufferBytes {
		t.Fatalf("record %d starts at %d, inside the first buffer", k, offs[k])
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	at := offs[k] + headerSize + 3
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	assertPrefix(t, dir, path, payloads, offs, k)
}

// FuzzScanSegment feeds arbitrary bytes to the log as its only segment.
// Open and Replay must never panic or fail, and the records Replay
// returns must re-frame to exactly the bytes Open kept.
func FuzzScanSegment(f *testing.F) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		valid = frameRecord(valid, uint64(i), []byte(fmt.Sprintf("record-%d", i)))
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(append(append([]byte(nil), valid...), 1, 2, 3))
	f.Add(frameRecord(frameRecord(nil, 9, []byte("a")), 9, []byte("b"))) // non-increasing seq
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer w.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("Open kept %d bytes that are not a prefix of the input", len(kept))
		}
		var reframed []byte
		if err := w.Replay(func(seq uint64, payload []byte) error {
			reframed = frameRecord(reframed, seq, payload)
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !bytes.Equal(reframed, kept) {
			t.Fatalf("replayed records re-frame to %d bytes, Open kept %d", len(reframed), len(kept))
		}
	})
}
