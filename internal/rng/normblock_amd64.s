// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

#include "textflag.h"

// normPairs is Norm on four lanes at a time, uniforms included: for
// each pair it forms the splitmix64 states of u1 and u2 from the
// generator's state, mixes them (mix64), converts the top 53 bits to
// [0, 1) exactly as Float64 does, then runs the steps of the standard
// library's amd64 archLog (src/math/log_amd64.s), math.Sqrt and
// cosTurn (cos.go), each scalar operation replaced by its packed AVX2
// twin and kept in its order. Packed IEEE add, multiply, divide and
// square root round each lane as the scalar instruction does, and
// nothing is fused (no FMA), so every lane has the scalar bits. The
// log tests f1 <= √2/2 (VCMPPD predicate 2), as archLog's CMPSD
// predicate 5 does, where the pure-Go log tests f1 < √2/2, and skips
// its special cases: u1 is in [2^-53, 1).
//
// Every instruction is VEX-encoded and the function ends with
// VZEROUPPER: one legacy SSE instruction among them costs an SSE/AVX
// transition on every pass.

// Each constant fills four lanes. VEX memory operands need no
// alignment.
#define LANES(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// Lane l's u1 is drawn from state s+(2l+1)·G and its u2 from
// s+(2l+2)·G, where G is splitmix64's increment 0x9e3779b97f4a7c15;
// a chunk of four pairs advances the states by 8·G.
DATA oddG<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA oddG<>+8(SB)/8, $0xdaa66d2c7ddf743f
DATA oddG<>+16(SB)/8, $0x1715609f7c746c69
DATA oddG<>+24(SB)/8, $0x538454127b096493
GLOBL oddG<>(SB), RODATA|NOPTR, $32
DATA evenG<>+0(SB)/8, $0x3c6ef372fe94f82a
DATA evenG<>+8(SB)/8, $0x78dde6e5fd29f054
DATA evenG<>+16(SB)/8, $0xb54cda58fbbee87e
DATA evenG<>+24(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL evenG<>(SB), RODATA|NOPTR, $32
LANES(eightG, 0xf1bbcdcbfa53e0a8)

// A tail of m pairs loads its lane mask at tailMask+(4-m)·8: m lanes
// of ones.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// mix64's multipliers, and each one's high half in the low word.
LANES(mul1, 0xbf58476d1ce4e5b9)
LANES(mul1hi, 0xbf58476d)
LANES(mul2, 0x94d049bb133111eb)
LANES(mul2hi, 0x94d049bb)

// An integer below 2^53 converts exactly as (2^84 + hi·2^32) −
// (2^84 + 2^52) + (2^52 + lo), each term's bits formed by OR.
LANES(lo32, 0x00000000FFFFFFFF)
LANES(exp52, 0x4330000000000000)        // 2^52
LANES(exp84, 0x4530000000000000)        // 2^84
LANES(exp84p52, 0x4530000000100000)     // 2^84 + 2^52
LANES(exp52p1022, 0x43300000000003FE)   // 2^52 + 1022
LANES(twoM53, 0x3CA0000000000000)       // 2^-53

LANES(mantMask, 0x000FFFFFFFFFFFFF)
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
// Int32 lanes of 1: the octants sit in the low four int32 lanes.
LANES(int1, 0x0000000100000001)

// MUL64 sets z to z·m mod 2^64 in each 64-bit lane from three 32×32
// multiplies: lo(z)·lo(m) + (hi(z)·lo(m) + lo(z)·hi(m))·2^32. mhi
// holds hi(m) in each lane's low word.
#define MUL64(z, m, mhi, t1, t2) \
	VPSRLQ   $32, z, t1; \
	VPMULUDQ m, t1, t1; \
	VPMULUDQ mhi, z, t2; \
	VPADDQ   t2, t1, t1; \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ m, z, z; \
	VPADDQ   t1, z, z

// MIX sets u to the top 53 bits of mix64 of the states in s, the
// integers Float64 converts; TOFLOAT converts them in place, exactly,
// and scales them by 2^-53 as Float64 does.
#define MIX(s, u, t1, t2) \
	VPSRLQ $30, s, u; \
	VPXOR  s, u, u; \
	MUL64(u, mul1<>(SB), mul1hi<>(SB), t1, t2); \
	VPSRLQ $27, u, t1; \
	VPXOR  t1, u, u; \
	MUL64(u, mul2<>(SB), mul2hi<>(SB), t1, t2); \
	VPSRLQ $31, u, t1; \
	VPXOR  t1, u, u; \
	VPSRLQ $11, u, u

#define TOFLOAT(u, t) \
	VPAND  lo32<>(SB), u, t; \
	VPOR   exp52<>(SB), t, t; \
	VPSRLQ $32, u, u; \
	VPOR   exp84<>(SB), u, u; \
	VSUBPD exp84p52<>(SB), u, u; \
	VADDPD t, u, u; \
	VMULPD twoM53<>(SB), u, u

// func normPairs(dst []float64, state uint64) int
TEXT ·normPairs(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	XORQ BX, BX // pairs done

	VPBROADCASTQ state+24(FP), Y0
	VPADDQ       oddG<>(SB), Y0, Y14  // Y14 = the lanes' u1 states
	VPADDQ       evenG<>(SB), Y0, Y15 // Y15 = the lanes' u2 states

loop:
	MOVQ     CX, DX
	SUBQ     BX, DX // DX = pairs left
	JLE      done
	VPCMPEQQ Y13, Y13, Y13 // Y13 = the active lanes: all four
	CMPQ     DX, $4
	JGE      draw
	LEAQ     tailMask<>(SB), SI
	MOVQ     $4, R8
	SUBQ     DX, R8
	VMOVDQU  (SI)(R8*8), Y13 // or the first DX

draw:
	// u1; a u1 of 0 in an active lane ends the call before this
	// chunk, for Norm to draw it again.
	MIX(Y14, Y0, Y1, Y2)
	VPXOR    Y1, Y1, Y1
	VPCMPEQQ Y1, Y0, Y1
	VPTEST   Y13, Y1
	JNE      done
	TOFLOAT(Y0, Y1) // Y0 = u1

	MIX(Y15, Y8, Y1, Y2)
	TOFLOAT(Y8, Y1) // Y8 = u2

	// f1, ki := math.Frexp(u1); k := float64(ki), the exponent field
	// minus 1022 formed exactly as 2^52+e − (2^52+1022).
	VANDPD mantMask<>(SB), Y0, Y2
	VORPD  half<>(SB), Y2, Y2 // Y2 = f1
	VPSRLQ $52, Y0, Y1
	VPOR   exp52<>(SB), Y1, Y1
	VSUBPD exp52p1022<>(SB), Y1, Y1 // Y1 = k

	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD $2, hSqrt2<>(SB), Y2, Y3 // Y3 = f1 <= √2/2: 0 or ^0
	VANDPD one<>(SB), Y3, Y3        // Y3 = 0 or 1
	VSUBPD Y3, Y1, Y1
	VADDPD one<>(SB), Y3, Y3        // Y3 = 1 or 2
	VMULPD Y3, Y2, Y2

	// f := f1 - 1
	VSUBPD one<>(SB), Y2, Y2 // Y2 = f

	// s := f / (2 + f)
	VADDPD two<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y4 // Y4 = s

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y4, Y4, Y5 // Y5 = s2
	VMULPD Y5, Y5, Y6 // Y6 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y6, Y7
	VADDPD logL5<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL1<>(SB), Y7, Y7
	VMULPD Y7, Y5, Y5 // Y5 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logL6<>(SB), Y6, Y7
	VADDPD logL4<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL2<>(SB), Y7, Y7
	VMULPD Y7, Y6, Y6 // Y6 = t2

	// R := t1 + t2
	VADDPD Y6, Y5, Y5 // Y5 = R

	// hfsq := 0.5 * f * f
	VMULPD half<>(SB), Y2, Y3
	VMULPD Y2, Y3, Y3 // Y3 = hfsq

	// log(u1) = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y3, Y5, Y5 // Y5 = hfsq+R
	VMULPD Y5, Y4, Y4 // Y4 = s*(hfsq+R)
	VMULPD ln2Lo<>(SB), Y1, Y5
	VADDPD Y5, Y4, Y4 // Y4 = s*(hfsq+R) + k*Ln2Lo
	VSUBPD Y4, Y3, Y3
	VSUBPD Y2, Y3, Y3 // Y3 = (hfsq-(s*(hfsq+R)+k*Ln2Lo))-f
	VMULPD ln2Hi<>(SB), Y1, Y1
	VSUBPD Y3, Y1, Y1 // Y1 = log(u1)

	// math.Sqrt(-2 * log(u1))
	VMULPD  minusTwo<>(SB), Y1, Y1
	VSQRTPD Y1, Y1

	// cosTurn(u2): x := 2 * math.Pi * u2
	VMULPD twoPi<>(SB), Y8, Y8 // Y8 = x

	// j := uint64(x * (4 / math.Pi)); j += j & 1; y := float64(j).
	// cosTurn's j &= 7 is left out: only bits 1 and 2 of j are read.
	VMULPD      fourOverPi<>(SB), Y8, Y9
	VCVTTPD2DQY Y9, X9
	VPAND       int1<>(SB), X9, X10
	VPADDD      X10, X9, X9 // X9 = j
	VCVTDQ2PD   X9, Y10     // Y10 = y

	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD pi4A<>(SB), Y10, Y11
	VSUBPD Y11, Y8, Y8
	VMULPD pi4B<>(SB), Y10, Y11
	VSUBPD Y11, Y8, Y8
	VMULPD pi4C<>(SB), Y10, Y11
	VSUBPD Y11, Y8, Y8 // Y8 = z

	// zz := z * z
	VMULPD Y8, Y8, Y10 // Y10 = zz

	// s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD sin0<>(SB), Y10, Y11
	VADDPD sin1<>(SB), Y11, Y11
	VMULPD Y10, Y11, Y11
	VADDPD sin2<>(SB), Y11, Y11
	VMULPD Y10, Y11, Y11
	VADDPD sin3<>(SB), Y11, Y11
	VMULPD Y10, Y11, Y11
	VADDPD sin4<>(SB), Y11, Y11
	VMULPD Y10, Y11, Y11
	VADDPD sin5<>(SB), Y11, Y11
	VMULPD Y10, Y8, Y2
	VMULPD Y11, Y2, Y11
	VADDPD Y8, Y11, Y11 // Y11 = s

	// c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD  cos0<>(SB), Y10, Y12
	VADDPD  cos1<>(SB), Y12, Y12
	VMULPD  Y10, Y12, Y12
	VADDPD  cos2<>(SB), Y12, Y12
	VMULPD  Y10, Y12, Y12
	VADDPD  cos3<>(SB), Y12, Y12
	VMULPD  Y10, Y12, Y12
	VADDPD  cos4<>(SB), Y12, Y12
	VMULPD  Y10, Y12, Y12
	VADDPD  cos5<>(SB), Y12, Y12
	VMULPD  Y10, Y10, Y2
	VMULPD  Y12, Y2, Y12
	VMULPD  half<>(SB), Y10, Y3
	VMOVUPD one<>(SB), Y4
	VSUBPD  Y3, Y4, Y4
	VADDPD  Y12, Y4, Y4 // Y4 = c

	// q := j >> 1; useSin := -(q & 1); neg := (q ^ q>>1) & 1
	VPSRLD $1, X9, X9 // X9 = q
	VPSRLD $1, X9, X2
	VPXOR  X9, X2, X2
	VPAND  int1<>(SB), X2, X2 // X2 = neg
	VPAND  int1<>(SB), X9, X9
	VPXOR  X3, X3, X3
	VPSUBD X9, X3, X3 // X3 = useSin

	// Widen both masks from the int32 lanes to the float64 lanes.
	VPMOVSXDQ X3, Y3
	VPMOVZXDQ X2, Y2
	VPSLLQ    $63, Y2, Y2 // Y2 = neg<<63

	// math.Float64frombits(s&useSin | c&^useSin ^ neg<<63)
	VANDPD  Y3, Y11, Y11
	VANDNPD Y4, Y3, Y3
	VORPD   Y3, Y11, Y11
	VXORPD  Y2, Y11, Y11 // Y11 = cosTurn(u2)

	VMULPD Y11, Y1, Y1

	CMPQ    DX, $4
	JLT     tail
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $4, BX
	VPADDQ  eightG<>(SB), Y14, Y14
	VPADDQ  eightG<>(SB), Y15, Y15
	JMP     loop

tail:
	// The inactive lanes were computed in full; only the active ones
	// are stored.
	VMASKMOVPD Y1, Y13, (DI)
	ADDQ       DX, BX

done:
	VZEROUPPER
	MOVQ BX, ret+32(FP)
	RET

// clampJitters is jitter on four lanes at a time: dst[i] = 1 +
// min(max(n·rel, −4·rel), 4·rel) for each normal n in dst. rel is
// positive, so ±4·rel are nonzero and, for a finite n·rel, VMINPD and
// VMAXPD pick what jitter's comparisons pick, with the same bits: on a
// tie the two values are equal and nonzero, and a −0 passes both as
// it passes jitter's. 4·rel is rel doubled twice, exact as 4*rel is,
// and −4·rel is 0 − 4·rel. A tail of 1–3 values runs the scalar VEX
// twins, so nothing past dst is read or written.
//
// func clampJitters(dst []float64, rel float64)
TEXT ·clampJitters(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD rel+24(FP), Y0 // Y0 = rel
	VADDPD       Y0, Y0, Y1
	VADDPD       Y1, Y1, Y1 // Y1 = 4·rel
	VXORPD       Y2, Y2, Y2
	VSUBPD       Y1, Y2, Y2 // Y2 = −4·rel
	VBROADCASTSD one<>(SB), Y3

clamp4:
	CMPQ    CX, $4
	JLT     clamp1
	VMULPD  (DI), Y0, Y4 // j := n * rel
	VMINPD  Y4, Y1, Y4   // 4·rel < j ? 4·rel : j
	VMAXPD  Y4, Y2, Y4   // −4·rel > j ? −4·rel : j
	VADDPD  Y3, Y4, Y4   // 1 + j
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     clamp4

clamp1:
	TESTQ  CX, CX
	JEQ    clamped
	VMOVSD (DI), X4
	VMULSD X0, X4, X4
	VMINSD X4, X1, X4
	VMAXSD X4, X2, X4
	VADDSD X3, X4, X4
	VMOVSD X4, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    clamp1

clamped:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
