package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/mat"
)

// frameHeader is a bare 16-byte frame header announcing n elements.
func frameHeader(tag, n int64) []byte {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(tag))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	return hdr
}

// TestReadFrameHeaderOnlyBoundsAllocation: a header announcing the
// largest legal frame, with no payload behind it, must fail without
// allocating the announced 2 GiB — memory may only grow with bytes that
// actually arrive.
func TestReadFrameHeaderOnlyBoundsAllocation(t *testing.T) {
	hdr := frameHeader(7, maxFrameElems)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only frame decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Fatalf("header-only frame allocated %d MiB before failing", got>>20)
	}
}

// TestReadFrameAllocs pins the per-frame cost of a frame within one read
// step: the header buffer, one payload buffer and the data slice.
func TestReadFrameAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	frame := encodeFrame(3, make([]float64, 4096))
	rd := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(frame)
		if _, _, err := readFrame(rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("readFrame allocates %.0f objects per frame, want 3", allocs)
	}
}

// TestReadFrameMultiStep round-trips a frame longer than one read step.
func TestReadFrameMultiStep(t *testing.T) {
	data := make([]float64, frameStep+5)
	for i := range data {
		data[i] = float64(i) - 0.5
	}
	tag, got, err := readFrame(bytes.NewReader(encodeFrame(-2, data)))
	if err != nil {
		t.Fatal(err)
	}
	if tag != -2 || len(got) != len(data) {
		t.Fatalf("tag %d, %d elements; want -2, %d", tag, len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("element %d: %g, want %g", i, got[i], data[i])
		}
	}
}

// FuzzReadFrame: readFrame never panics on arbitrary bytes, a frame it
// accepts re-encodes to the bytes it consumed, and every frame
// encodeFrame produces round-trips bit for bit.
func FuzzReadFrame(f *testing.F) {
	valid := encodeFrame(5, []float64{1, -2.5, math.Inf(1)})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                  // truncated payload
	f.Add(frameHeader(1, -1))                    // negative count
	f.Add(frameHeader(1, maxFrameElems+1))       // oversized count
	f.Add(append(frameHeader(9, 1), 0, 0, 0, 0)) // payload shorter than announced
	f.Fuzz(func(t *testing.T, raw []byte) {
		if tag, data, err := readFrame(bytes.NewReader(raw)); err == nil {
			if enc := encodeFrame(tag, data); !bytes.Equal(enc, raw[:len(enc)]) {
				t.Fatalf("decoded frame re-encodes to %x, consumed %x", enc, raw[:len(enc)])
			}
		}

		// Read raw as a tag and a payload of float64 bit patterns.
		var tag int64
		if len(raw) >= 8 {
			tag = int64(binary.LittleEndian.Uint64(raw))
		}
		data := make([]float64, max(len(raw)-8, 0)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8+8*i:]))
		}
		gotTag, got, err := readFrame(bytes.NewReader(encodeFrame(int(tag), data)))
		if err != nil {
			t.Fatalf("encoded frame fails to decode: %v", err)
		}
		if gotTag != int(tag) || len(got) != len(data) {
			t.Fatalf("round trip: tag %d len %d, want tag %d len %d", gotTag, len(got), tag, len(data))
		}
		for i := range data {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				t.Fatalf("round trip element %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(data[i]))
			}
		}
	})
}
