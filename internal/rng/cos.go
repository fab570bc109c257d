// Copyright 2011 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

package rng

// This file carries the cosine kernel of the Go standard library
// (src/math/sin.go, the pure-Go cos that math.Cos runs on amd64),
// specialised to one turn: the argument is 2π·u for u in [0, 1), so it
// is never negative, NaN, infinite or large enough for Payne–Hanek
// reduction. The constants are the library's (its polynomial
// coefficients are Cephes's, by Stephen L. Moshier) and every
// floating-point operation is the library's, in the same order, so the
// result has math.Cos's bits. What changes is how the result is picked:
// the library branches on the octant, which is random here and so
// mispredicts about half the time; cosTurn evaluates both polynomials
// and picks one, and sets its sign, with bit masks.

import "math"

// sin coefficients
var _sin = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

// cos coefficients
var _cos = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// cosTurn returns math.Cos(2*math.Pi*u), bit for bit, for u in [0, 1).
func cosTurn(u float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x := 2 * math.Pi * u

	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4), as integer for tests on the phase angle
	// map zeros to origin: round j up to even, so the octant is 0, 2, 4 or 6
	j += j & 1
	y := float64(j)                       // the rounded octant, as float
	j &= 7                                // octant modulo 2Pi radians (360 degrees)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // Extended precision modular arithmetic

	zz := z * z
	s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])

	// Octants 2 and 6 take the sine polynomial, and octants 2 and 4
	// are negated (a sign-bit flip, as -y is).
	q := j >> 1
	useSin := -(q & 1) // all ones for octants 2 and 6
	neg := (q ^ q>>1) & 1
	bits := math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin
	return math.Float64frombits(bits ^ neg<<63)
}
