package leb128

import (
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 624485, 1<<32 - 1, 1<<64 - 1}
	for _, v := range cases {
		b := AppendUint(nil, v)
		got, n, err := Uint(b, 64)
		if err != nil {
			t.Fatalf("Uint(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("round trip %d: got %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, 64, -64, -65, 127, 128, -128, 1<<31 - 1, -1 << 31, 1<<62 - 1, -1 << 62}
	for _, v := range cases {
		b := AppendInt(nil, v)
		got, n, err := Int(b, 64)
		if err != nil {
			t.Fatalf("Int(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("round trip %d: got %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestUintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUint(nil, v)
		got, n, err := Uint(b, 64)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		b := AppendInt(nil, v)
		got, n, err := Int(b, 64)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt32RangeQuick(t *testing.T) {
	f := func(v int32) bool {
		b := AppendInt(nil, int64(v))
		got, _, err := Int(b, 32)
		return err == nil && got == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintTruncated(t *testing.T) {
	b := AppendUint(nil, 624485)
	if _, _, err := Uint(b[:1], 32); err == nil {
		t.Error("expected error for truncated input")
	}
}

func TestUintOverflow(t *testing.T) {
	// 2^32 does not fit in 32 bits.
	b := AppendUint(nil, 1<<32)
	if _, _, err := Uint(b, 32); err == nil {
		t.Error("expected overflow decoding 2^32 with 32-bit width")
	}
	// Max u32 does fit.
	b = AppendUint(nil, 1<<32-1)
	if v, _, err := Uint(b, 32); err != nil || v != 1<<32-1 {
		t.Errorf("max u32: got %d, %v", v, err)
	}
}

func TestIntOverflow(t *testing.T) {
	b := AppendInt(nil, 1<<31) // does not fit in i32
	if _, _, err := Int(b, 32); err == nil {
		t.Error("expected overflow decoding 2^31 with 32-bit width")
	}
}

func TestEmptyInput(t *testing.T) {
	if _, _, err := Uint(nil, 32); err == nil {
		t.Error("expected error for empty input")
	}
	if _, _, err := Int(nil, 32); err == nil {
		t.Error("expected error for empty input")
	}
}
