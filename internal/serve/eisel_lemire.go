// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

package serve

// This file carries the Eisel-Lemire decimal-to-float64 conversion of
// the Go standard library (src/strconv/eisel_lemire.go), the algorithm
// strconv.ParseFloat itself runs on a mantissa of at most 19 digits.
// It is described at https://nigeltao.github.io/blog/2020/eisel-lemire.html.
// eiselLemire64 is copied unchanged apart from the table access: it is
// a method on the table, which is computed on first use instead of
// being listed (see detailedPowersOfTen), so a caller fetches the table
// once rather than per number.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// eiselLemire64 returns ±man·10^exp10 correctly rounded to float64, or
// ok false where the algorithm declines: an exponent outside the
// table, a result outside the normal float64 range, or a product too
// close to a halfway point to round from 128 bits. The caller then
// converts the token with strconv.ParseFloat.
func (tens *powersOfTen) eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}
	pow := &tens[exp10-detailedPowersOfTenMinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of detailedPowersOfTen. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// powersOfTen is the table detailedPowersOfTen returns.
type powersOfTen [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64

// detailedPowersOfTen returns the 128-bit mantissas of 10^q for q in
// [-348, 347], rounded down and normalised so the top bit is set, as
// {low 64 bits, high 64 bits} pairs. For example:
//
//   - 1e43 ≈ (0xE596B7B0_C643C719                   * (2 ** 79))
//   - 1e43 = (0xE596B7B0_C643C719_6D9CCD05_D0000000 * (2 ** 15))
//
// The exponents are implied by a linear expression with slope
// 217706.0/65536.0 ≈ log(10)/log(2). The standard library lists the
// 696 rows; here they are computed exactly with math/big on the first
// call (under a millisecond), not at package init, so a program that
// imports serve but never parses a sample does not pay for them.
var detailedPowersOfTen = sync.OnceValue(func() *powersOfTen {
	var table powersOfTen
	var buf [16]byte
	store := func(q int, m *big.Int) {
		m.FillBytes(buf[:])
		table[q-detailedPowersOfTenMinExp10] = [2]uint64{
			binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8]),
		}
	}
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^q
	var m big.Int
	for q := 0; q <= -detailedPowersOfTenMinExp10; q++ {
		n := p.BitLen()
		if q <= detailedPowersOfTenMaxExp10 {
			// 10^q shifted to exactly 128 bits; a right shift truncates.
			if n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			store(q, &m)
		}
		if q > 0 {
			// ⌊2^(127+n) / 10^q⌋: 2^(n-1) < 10^q < 2^n puts it in
			// [2^127, 2^128).
			m.Lsh(big.NewInt(1), uint(127+n))
			m.Quo(&m, p)
			store(-q, &m)
		}
		p.Mul(p, ten)
	}
	return &table
})
