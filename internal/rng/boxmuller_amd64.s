// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

#include "textflag.h"

// boxMuller is Norm's transform on two lanes at a time: the steps of
// the standard library's amd64 archLog (src/math/log_amd64.s), then
// math.Sqrt, then cosTurn (cos.go), each scalar operation replaced by
// its packed SSE2 twin and kept in its order. Packed IEEE add,
// multiply, divide and square root round each lane as the scalar
// instruction does, and nothing is fused, so every lane has the scalar
// bits. The log keeps archLog's reduction test, CMPSD predicate 5
// (f1 <= √2/2), where the pure-Go log tests f1 < √2/2, and skips its
// special cases: u1 is in [2^-53, 1).

// Each constant fills both lanes. A 16-byte symbol is 16-byte
// aligned, as the packed instructions' memory operands need.
#define LANES(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

LANES(mantMask, 0x000FFFFFFFFFFFFF)
LANES(expBias, 0x3FE)
LANES(half, 0x3FE0000000000000)
LANES(one, 0x3FF0000000000000)
LANES(two, 0x4000000000000000)
LANES(minusTwo, 0xC000000000000000)
LANES(hSqrt2, 0x3FE6A09E667F3BCD)   // √2/2
LANES(ln2Hi, 0x3FE62E42FEE00000)
LANES(ln2Lo, 0x3DEA39EF35793C76)
LANES(logL1, 0x3FE5555555555593)
LANES(logL2, 0x3FD999999997FA04)
LANES(logL3, 0x3FD2492494229359)
LANES(logL4, 0x3FCC71C51D8E78AF)
LANES(logL5, 0x3FC7466496CB03DE)
LANES(logL6, 0x3FC39A09D078C69F)
LANES(logL7, 0x3FC2F112DF3E5244)
LANES(twoPi, 0x401921FB54442D18)
LANES(fourOverPi, 0x3FF45F306DC9C883)
LANES(pi4A, 0x3FE921FB40000000)
LANES(pi4B, 0x3E64442D00000000)
LANES(pi4C, 0x3CE8469898CC5170)
LANES(sin0, 0x3DE5D8FD1FD19CCD)
LANES(sin1, 0xBE5AE5E5A9291F5D)
LANES(sin2, 0x3EC71DE3567D48A1)
LANES(sin3, 0xBF2A01A019BFDF03)
LANES(sin4, 0x3F8111111110F7D0)
LANES(sin5, 0xBFC5555555555548)
LANES(cos0, 0xBDA8FA49A0861A9B)
LANES(cos1, 0x3E21EE9D7B4E3F05)
LANES(cos2, 0xBE927E4F7EAC4BC6)
LANES(cos3, 0x3EFA01A019C844F5)
LANES(cos4, 0xBF56C16C16C14F91)
LANES(cos5, 0x3FA555555555554B)
// Four int32 lanes of 1: CVTTPD2PL leaves the octants in int32 lanes.
LANES(int1, 0x0000000100000001)

// func boxMuller(z, u2 []float64)
TEXT ·boxMuller(SB), NOSPLIT, $0-48
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ u2_base+24(FP), DX

loop:
	CMPQ CX, $1
	JLT  done
	JEQ  one
	MOVUPD (DI), X0 // u1
	MOVUPD (DX), X8 // u2
	JMP  body

one:
	// The last of an odd count: the high lanes read 0, which the
	// steps below carry through to finite values nobody stores.
	MOVSD (DI), X0
	MOVSD (DX), X8

body:
	// f1, ki := math.Frexp(u1); k := float64(ki)
	MOVAPD   X0, X2
	ANDPD    mantMask<>(SB), X2
	ORPD     half<>(SB), X2     // X2 = f1
	PSRLQ    $52, X0
	PSUBQ    expBias<>(SB), X0
	PSHUFL   $0x08, X0, X0      // the two lanes' low words
	CVTPL2PD X0, X1             // X1 = k

	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }
	MOVAPD hSqrt2<>(SB), X3
	CMPPD  X2, X3, $5           // X3 = !(√2/2 < f1): 0 or ^0
	ANDPD  one<>(SB), X3        // X3 = 0 or 1
	SUBPD  X3, X1
	ADDPD  one<>(SB), X3        // X3 = 1 or 2
	MULPD  X3, X2

	// f := f1 - 1
	SUBPD one<>(SB), X2 // X2 = f

	// s := f / (2 + f)
	MOVAPD two<>(SB), X3
	ADDPD  X2, X3
	MOVAPD X2, X4
	DIVPD  X3, X4 // X4 = s

	// s2 := s * s; s4 := s2 * s2
	MOVAPD X4, X5
	MULPD  X5, X5 // X5 = s2
	MOVAPD X5, X6
	MULPD  X6, X6 // X6 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVAPD logL7<>(SB), X7
	MULPD  X6, X7
	ADDPD  logL5<>(SB), X7
	MULPD  X6, X7
	ADDPD  logL3<>(SB), X7
	MULPD  X6, X7
	ADDPD  logL1<>(SB), X7
	MULPD  X7, X5 // X5 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVAPD logL6<>(SB), X7
	MULPD  X6, X7
	ADDPD  logL4<>(SB), X7
	MULPD  X6, X7
	ADDPD  logL2<>(SB), X7
	MULPD  X7, X6 // X6 = t2

	// R := t1 + t2
	ADDPD X6, X5 // X5 = R

	// hfsq := 0.5 * f * f
	MOVAPD half<>(SB), X3
	MULPD  X2, X3
	MULPD  X2, X3 // X3 = hfsq

	// log(u1) = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD  X3, X5 // X5 = hfsq+R
	MULPD  X5, X4 // X4 = s*(hfsq+R)
	MOVAPD ln2Lo<>(SB), X5
	MULPD  X1, X5
	ADDPD  X5, X4 // X4 = s*(hfsq+R) + k*Ln2Lo
	SUBPD  X4, X3
	SUBPD  X2, X3 // X3 = (hfsq-(s*(hfsq+R)+k*Ln2Lo))-f
	MULPD  ln2Hi<>(SB), X1
	SUBPD  X3, X1 // X1 = log(u1)

	// math.Sqrt(-2 * log(u1))
	MULPD  minusTwo<>(SB), X1
	SQRTPD X1, X1

	// cosTurn(u2): x := 2 * math.Pi * u2
	MULPD twoPi<>(SB), X8 // X8 = x

	// j := uint64(x * (4 / math.Pi)); j += j & 1; y := float64(j).
	// cosTurn's j &= 7 is left out: only bits 1 and 2 of j are read.
	MOVAPD    X8, X9
	MULPD     fourOverPi<>(SB), X9
	CVTTPD2PL X9, X9
	MOVO      X9, X10
	PAND      int1<>(SB), X10
	PADDL     X10, X9 // X9 = j
	CVTPL2PD  X9, X10 // X10 = y

	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	MOVAPD X10, X11
	MULPD  pi4A<>(SB), X11
	SUBPD  X11, X8
	MOVAPD X10, X11
	MULPD  pi4B<>(SB), X11
	SUBPD  X11, X8
	MULPD  pi4C<>(SB), X10
	SUBPD  X10, X8 // X8 = z

	// zz := z * z
	MOVAPD X8, X10
	MULPD  X10, X10 // X10 = zz

	// s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	MOVAPD sin0<>(SB), X11
	MULPD  X10, X11
	ADDPD  sin1<>(SB), X11
	MULPD  X10, X11
	ADDPD  sin2<>(SB), X11
	MULPD  X10, X11
	ADDPD  sin3<>(SB), X11
	MULPD  X10, X11
	ADDPD  sin4<>(SB), X11
	MULPD  X10, X11
	ADDPD  sin5<>(SB), X11
	MOVAPD X8, X12
	MULPD  X10, X12
	MULPD  X12, X11
	ADDPD  X8, X11 // X11 = s

	// c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	MOVAPD cos0<>(SB), X12
	MULPD  X10, X12
	ADDPD  cos1<>(SB), X12
	MULPD  X10, X12
	ADDPD  cos2<>(SB), X12
	MULPD  X10, X12
	ADDPD  cos3<>(SB), X12
	MULPD  X10, X12
	ADDPD  cos4<>(SB), X12
	MULPD  X10, X12
	ADDPD  cos5<>(SB), X12
	MOVAPD X10, X13
	MULPD  X10, X13
	MULPD  X13, X12
	MOVAPD half<>(SB), X13
	MULPD  X10, X13
	MOVAPD one<>(SB), X14
	SUBPD  X13, X14
	ADDPD  X12, X14 // X14 = c

	// q := j >> 1; useSin := -(q & 1); neg := (q ^ q>>1) & 1
	PSRLL $1, X9 // X9 = q
	MOVO  X9, X12
	PSRLL $1, X12
	PXOR  X9, X12
	PAND  int1<>(SB), X12 // X12 = neg
	PAND  int1<>(SB), X9
	PXOR  X13, X13
	PSUBL X9, X13 // X13 = useSin

	// Widen both masks from the int32 lanes to the float64 lanes.
	PUNPCKLLQ X13, X13
	PSLLL     $31, X12
	PXOR      X9, X9
	PUNPCKLLQ X12, X9 // X9 = neg<<63

	// math.Float64frombits(s&useSin | c&^useSin ^ neg<<63)
	ANDPD  X13, X11
	ANDNPD X14, X13
	ORPD   X13, X11
	XORPD  X9, X11 // X11 = cosTurn(u2)

	MULPD X11, X1

	CMPQ   CX, $1
	JEQ    last
	MOVUPD X1, (DI)
	ADDQ   $16, DX
	ADDQ   $16, DI
	SUBQ   $2, CX
	JMP    loop

last:
	MOVSD X1, (DI)

done:
	RET
