package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var e Encoder
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(math.MaxUint64 - 7)
	e.I64(-42)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Buf())
	if v := d.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64-7 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTripStringsAndBytes(t *testing.T) {
	var e Encoder
	e.String("hello, vice")
	e.String("")
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	d := NewDecoder(e.Buf())
	if v := d.String(); v != "hello, vice" {
		t.Errorf("String = %q", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("empty String = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.Bytes(); len(v) != 0 {
		t.Errorf("nil Bytes = %v", v)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTruncatedDecodeIsSticky(t *testing.T) {
	var e Encoder
	e.U32(7)
	d := NewDecoder(e.Buf())
	d.U64() // needs 8 bytes, only 4 available
	if d.Err() != ErrTruncated {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Subsequent reads return zero values without panicking.
	if d.U32() != 0 || d.String() != "" || d.Bool() {
		t.Error("post-error reads returned non-zero values")
	}
	if d.Close() != ErrTruncated {
		t.Error("Close lost the sticky error")
	}
}

func TestBogusLengthPrefixRejected(t *testing.T) {
	var e Encoder
	e.U32(MaxField + 1)
	d := NewDecoder(e.Buf())
	if d.Bytes() != nil || d.Err() != ErrTooLong {
		t.Fatalf("Err = %v, want ErrTooLong", d.Err())
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	var e Encoder
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Buf())
	d.U8()
	if err := d.Close(); err == nil {
		t.Fatal("Close ignored trailing bytes")
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.String("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.U8(9)
	if e.Len() != 1 || e.Buf()[0] != 9 {
		t.Fatal("encoder unusable after Reset")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first"), {}, []byte("third frame with more data")}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}
}

func TestFrameRejectsHugeLength(t *testing.T) {
	var e Encoder
	e.U32(MaxField + 1)
	if _, err := ReadFrame(bytes.NewReader(e.Buf())); err != ErrTooLong {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestFrameShortBody(t *testing.T) {
	var e Encoder
	e.U32(100)
	e.Raw([]byte("only ten b"))
	if _, err := ReadFrame(bytes.NewReader(e.Buf())); err == nil {
		t.Fatal("short frame body not detected")
	}
}

// Property: any sequence of (u64, string, bytes, bool) triples round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(nums []uint64, strs []string, blob []byte, flag bool) bool {
		var e Encoder
		e.Int(len(nums))
		for _, n := range nums {
			e.U64(n)
		}
		e.Int(len(strs))
		for _, s := range strs {
			e.String(s)
		}
		e.Bytes(blob)
		e.Bool(flag)

		d := NewDecoder(e.Buf())
		if got := d.Int(); got != len(nums) {
			return false
		}
		for _, n := range nums {
			if d.U64() != n {
				return false
			}
		}
		if got := d.Int(); got != len(strs) {
			return false
		}
		for _, s := range strs {
			if d.String() != s {
				return false
			}
		}
		if !bytes.Equal(d.Bytes(), blob) {
			return false
		}
		if d.Bool() != flag {
			return false
		}
		return d.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics and never reads past the
// buffer.
func TestQuickDecodeGarbageSafe(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		d.U8()
		d.U16()
		_ = d.String()
		d.U64()
		d.Bytes()
		d.Bool()
		return d.Remaining() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	for _, h := range []TraceHeader{
		{},
		{Trace: 0xdeadbeefcafef00d, Span: 1},
	} {
		var e Encoder
		h.Encode(&e)
		if len(e.Buf()) != 16 {
			t.Fatalf("TraceHeader encoded to %d bytes, want fixed 16", len(e.Buf()))
		}
		d := NewDecoder(e.Buf())
		got := DecodeTraceHeader(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip: %+v != %+v", got, h)
		}
	}
}

func TestReadFrameLimitSizes(t *testing.T) {
	// Frames past frameChunk take the grow-as-bytes-arrive path; every
	// size must round-trip exactly.
	for _, n := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 5} {
		var buf bytes.Buffer
		payload := bytes.Repeat([]byte{byte(n)}, n)
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrameLimit(&buf, MaxField)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: got %d bytes, err %v", n, len(got), err)
		}
	}
	var buf bytes.Buffer
	_ = WriteFrame(&buf, make([]byte, 100))
	if _, err := ReadFrameLimit(&buf, 99); !errors.Is(err, ErrTooLong) {
		t.Fatalf("over-limit frame: err = %v, want ErrTooLong", err)
	}
}

func TestReadFrameLyingLengthAllocatesOneChunk(t *testing.T) {
	// A header declaring MaxField followed by a short body must fail
	// without allocating the declared length.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxField)
	r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader([]byte("short")))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("truncated frame read without error")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 2*frameChunk {
		t.Fatalf("a lying %d-byte header allocated %d bytes", MaxField, grown)
	}
}
