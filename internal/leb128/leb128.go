// Package leb128 implements the variable-length integer encoding used by the
// WebAssembly binary format (LEB128, both unsigned and signed flavors).
package leb128

import (
	"errors"
	"io"
)

// ErrOverflow is returned when a varint does not terminate within the number
// of bytes permitted for its declared bit width.
var ErrOverflow = errors.New("leb128: value overflows integer width")

// AppendUint appends the unsigned LEB128 encoding of v to dst.
func AppendUint(dst []byte, v uint64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			dst = append(dst, b|0x80)
		} else {
			return append(dst, b)
		}
	}
}

// AppendInt appends the signed LEB128 encoding of v to dst.
func AppendInt(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return append(dst, b)
		}
		dst = append(dst, b|0x80)
	}
}

// Uint decodes an unsigned LEB128 value of at most bits bits from p.
// It returns the value and the number of bytes consumed.
func Uint(p []byte, bits uint) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; i < len(p); i++ {
		b := p[i]
		if shift >= bits {
			return 0, 0, ErrOverflow
		}
		if shift+7 > bits {
			// The final byte may only use the low bits-shift bits.
			if b>>(bits-shift) != 0 && b&0x80 == 0 {
				return 0, 0, ErrOverflow
			}
			if b&0x80 != 0 {
				return 0, 0, ErrOverflow
			}
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, io.ErrUnexpectedEOF
}

// Int decodes a signed LEB128 value of at most bits bits from p.
// It returns the value and the number of bytes consumed.
func Int(p []byte, bits uint) (int64, int, error) {
	var v int64
	var shift uint
	for i := 0; i < len(p); i++ {
		b := p[i]
		if shift >= bits+7 {
			return 0, 0, ErrOverflow
		}
		v |= int64(b&0x7f) << shift
		shift += 7
		if b&0x80 == 0 {
			if shift < 64 && b&0x40 != 0 {
				v |= -1 << shift // sign extend
			}
			// Range check against the declared width.
			if bits < 64 {
				min := int64(-1) << (bits - 1)
				max := int64(1)<<(bits-1) - 1
				if v < min || v > max {
					return 0, 0, ErrOverflow
				}
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, io.ErrUnexpectedEOF
}
