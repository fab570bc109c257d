// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

#include "textflag.h"

// normPairs512 is normPairs (normblock_amd64.s) on eight lanes at a
// time, in AVX-512F and AVX-512DQ: the same splitmix64 states, mix64,
// exact conversion, archLog, math.Sqrt and cosTurn steps in the same
// order, with packed IEEE add, multiply, divide and square root only
// and no FMA, so every lane has the scalar bits. What differs is how
// some steps are formed, each exactly:
//
//   - mix64's multiplies are VPMULLQ, the low 64 bits of the product.
//   - The 53-bit integers convert with VCVTUQQ2PD, exact below 2^53,
//     then ×2^-53, as Float64 divides by 2^53.
//   - Frexp's fraction is VGETMANTPD $2 (interval [1/2, 1), the
//     source's sign) and its exponent VGETEXPPD + 1: for a normal u1
//     in [2^-53, 1) both are exact, and they are the fraction and
//     exponent normPairs forms from the bits.
//   - archLog's f1 <= √2/2 (VCMPPD predicate 2) sets a mask, under
//     which k−1 and f1+f1 are written: normPairs' k−0 and f1·1 leave
//     the other lanes as they are, and f1+f1 is f1·2.
//   - The octant converts with VCVTTPD2QQ and back with VCVTQQ2PD;
//     it is below 9, so both are exact.
//   - cosTurn's pick is a mask of the sine lanes and VBLENDMPD, and
//     its sign is XOR-ed in as (q ^ q>>1)<<63.
//
// Every constant is an embedded broadcast (.BCST) of one float64.
// The function ends with VZEROUPPER.

#define CONST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $8

// Lane l's u1 is drawn from state s+(2l+1)·G and its u2 from
// s+(2l+2)·G, where G is splitmix64's increment 0x9e3779b97f4a7c15;
// a chunk of eight pairs advances the states by 16·G.
DATA oddG<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA oddG<>+8(SB)/8, $0xdaa66d2c7ddf743f
DATA oddG<>+16(SB)/8, $0x1715609f7c746c69
DATA oddG<>+24(SB)/8, $0x538454127b096493
DATA oddG<>+32(SB)/8, $0x8ff34785799e5cbd
DATA oddG<>+40(SB)/8, $0xcc623af8783354e7
DATA oddG<>+48(SB)/8, $0x08d12e6b76c84d11
DATA oddG<>+56(SB)/8, $0x454021de755d453b
GLOBL oddG<>(SB), RODATA|NOPTR, $64
DATA evenG<>+0(SB)/8, $0x3c6ef372fe94f82a
DATA evenG<>+8(SB)/8, $0x78dde6e5fd29f054
DATA evenG<>+16(SB)/8, $0xb54cda58fbbee87e
DATA evenG<>+24(SB)/8, $0xf1bbcdcbfa53e0a8
DATA evenG<>+32(SB)/8, $0x2e2ac13ef8e8d8d2
DATA evenG<>+40(SB)/8, $0x6a99b4b1f77dd0fc
DATA evenG<>+48(SB)/8, $0xa708a824f612c926
DATA evenG<>+56(SB)/8, $0xe3779b97f4a7c150
GLOBL evenG<>(SB), RODATA|NOPTR, $64
CONST(sixteenG, 0xe3779b97f4a7c150)
CONST(thirtyTwoG, 0xc6ef372fe94f82a0)

CONST(mul1, 0xbf58476d1ce4e5b9)
CONST(mul2, 0x94d049bb133111eb)
CONST(twoM53, 0x3CA0000000000000)  // 2^-53
CONST(int1, 1)

CONST(half, 0x3FE0000000000000)
CONST(one, 0x3FF0000000000000)
CONST(two, 0x4000000000000000)
CONST(minusTwo, 0xC000000000000000)
CONST(hSqrt2, 0x3FE6A09E667F3BCD)   // √2/2
CONST(ln2Hi, 0x3FE62E42FEE00000)
CONST(ln2Lo, 0x3DEA39EF35793C76)
CONST(logL1, 0x3FE5555555555593)
CONST(logL2, 0x3FD999999997FA04)
CONST(logL3, 0x3FD2492494229359)
CONST(logL4, 0x3FCC71C51D8E78AF)
CONST(logL5, 0x3FC7466496CB03DE)
CONST(logL6, 0x3FC39A09D078C69F)
CONST(logL7, 0x3FC2F112DF3E5244)
CONST(twoPi, 0x401921FB54442D18)
CONST(fourOverPi, 0x3FF45F306DC9C883)
CONST(pi4A, 0x3FE921FB40000000)
CONST(pi4B, 0x3E64442D00000000)
CONST(pi4C, 0x3CE8469898CC5170)
CONST(sin0, 0x3DE5D8FD1FD19CCD)
CONST(sin1, 0xBE5AE5E5A9291F5D)
CONST(sin2, 0x3EC71DE3567D48A1)
CONST(sin3, 0xBF2A01A019BFDF03)
CONST(sin4, 0x3F8111111110F7D0)
CONST(sin5, 0xBFC5555555555548)
CONST(cos0, 0xBDA8FA49A0861A9B)
CONST(cos1, 0x3E21EE9D7B4E3F05)
CONST(cos2, 0xBE927E4F7EAC4BC6)
CONST(cos3, 0x3EFA01A019C844F5)
CONST(cos4, 0xBF56C16C16C14F91)
CONST(cos5, 0x3FA555555555554B)

// MIX sets u to the top 53 bits of mix64 of the states in s, the
// integers Float64 converts; t is scratch.
#define MIX(s, u, t) \
	VPSRLQ       $30, s, u; \
	VPXORQ       s, u, u; \
	VPMULLQ.BCST mul1<>(SB), u, u; \
	VPSRLQ       $27, u, t; \
	VPXORQ       t, u, u; \
	VPMULLQ.BCST mul2<>(SB), u, u; \
	VPSRLQ       $31, u, t; \
	VPXORQ       t, u, u; \
	VPSRLQ       $11, u, u

// TOFLOAT converts MIX's integers in u to Float64's values in [0, 1).
#define TOFLOAT(u) \
	VCVTUQQ2PD  u, u; \
	VMULPD.BCST twoM53<>(SB), u, u

// LOGSQRT sets k to math.Sqrt(-2 * log(u)), archLog's steps on the
// lanes of u; f, s, a, b and t are scratch, and km holds the lanes
// that take the f1 <= √2/2 reduction.
//
// f1, ki := math.Frexp(u1); k := float64(ki)
// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }
// f := f1 - 1
// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
// t2 := s4 * (L2 + s4*(L4+s4*L6))
// R := t1 + t2; hfsq := 0.5 * f * f
// log(u1) = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
#define LOGSQRT(u, k, f, s, a, b, t, km) \
	VGETMANTPD   $2, u, f; \
	VGETEXPPD    u, k; \
	VADDPD.BCST  one<>(SB), k, k; \
	VCMPPD.BCST  $2, hSqrt2<>(SB), f, km; \
	VSUBPD.BCST  one<>(SB), k, km, k; \
	VADDPD       f, f, km, f; \
	VSUBPD.BCST  one<>(SB), f, f; \
	VADDPD.BCST  two<>(SB), f, t; \
	VDIVPD       t, f, s; \
	VMULPD       s, s, a; \
	VMULPD       a, a, b; \
	VMULPD.BCST  logL7<>(SB), b, t; \
	VADDPD.BCST  logL5<>(SB), t, t; \
	VMULPD       b, t, t; \
	VADDPD.BCST  logL3<>(SB), t, t; \
	VMULPD       b, t, t; \
	VADDPD.BCST  logL1<>(SB), t, t; \
	VMULPD       t, a, a; \
	VMULPD.BCST  logL6<>(SB), b, t; \
	VADDPD.BCST  logL4<>(SB), t, t; \
	VMULPD       b, t, t; \
	VADDPD.BCST  logL2<>(SB), t, t; \
	VMULPD       t, b, b; \
	VADDPD       b, a, a; \
	VMULPD.BCST  half<>(SB), f, t; \
	VMULPD       f, t, t; \
	VADDPD       t, a, a; \
	VMULPD       a, s, s; \
	VMULPD.BCST  ln2Lo<>(SB), k, a; \
	VADDPD       a, s, s; \
	VSUBPD       s, t, t; \
	VSUBPD       f, t, t; \
	VMULPD.BCST  ln2Hi<>(SB), k, k; \
	VSUBPD       t, k, k; \
	VMULPD.BCST  minusTwo<>(SB), k, k; \
	VSQRTPD      k, k

// COSTURN sets c to cosTurn of the lanes of x, which it overwrites; j,
// y, zz, s and t are scratch, and ks holds the lanes that take the sine
// polynomial. cosTurn's j &= 7 is left out: only bits 1 and 2 of j are
// read.
//
// x := 2 * math.Pi * u
// j := uint64(x * (4 / math.Pi)); j += j & 1; y := float64(j)
// z := ((x - y*PI4A) - y*PI4B) - y*PI4C; zz := z * z
// s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
// c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
// q := j >> 1; pick s where q&1 is 1, else c; flip the sign where (q ^ q>>1)&1 is 1
#define COSTURN(x, c, j, y, zz, s, t, ks) \
	VMULPD.BCST   twoPi<>(SB), x, x; \
	VMULPD.BCST   fourOverPi<>(SB), x, j; \
	VCVTTPD2QQ    j, j; \
	VPANDQ.BCST   int1<>(SB), j, y; \
	VPADDQ        y, j, j; \
	VCVTQQ2PD     j, y; \
	VMULPD.BCST   pi4A<>(SB), y, t; \
	VSUBPD        t, x, x; \
	VMULPD.BCST   pi4B<>(SB), y, t; \
	VSUBPD        t, x, x; \
	VMULPD.BCST   pi4C<>(SB), y, t; \
	VSUBPD        t, x, x; \
	VMULPD        x, x, zz; \
	VMULPD.BCST   sin0<>(SB), zz, s; \
	VADDPD.BCST   sin1<>(SB), s, s; \
	VMULPD        zz, s, s; \
	VADDPD.BCST   sin2<>(SB), s, s; \
	VMULPD        zz, s, s; \
	VADDPD.BCST   sin3<>(SB), s, s; \
	VMULPD        zz, s, s; \
	VADDPD.BCST   sin4<>(SB), s, s; \
	VMULPD        zz, s, s; \
	VADDPD.BCST   sin5<>(SB), s, s; \
	VMULPD        zz, x, t; \
	VMULPD        s, t, s; \
	VADDPD        x, s, s; \
	VMULPD.BCST   cos0<>(SB), zz, c; \
	VADDPD.BCST   cos1<>(SB), c, c; \
	VMULPD        zz, c, c; \
	VADDPD.BCST   cos2<>(SB), c, c; \
	VMULPD        zz, c, c; \
	VADDPD.BCST   cos3<>(SB), c, c; \
	VMULPD        zz, c, c; \
	VADDPD.BCST   cos4<>(SB), c, c; \
	VMULPD        zz, c, c; \
	VADDPD.BCST   cos5<>(SB), c, c; \
	VMULPD        zz, zz, t; \
	VMULPD        c, t, c; \
	VMULPD.BCST   half<>(SB), zz, zz; \
	VBROADCASTSD  one<>(SB), t; \
	VSUBPD        zz, t, t; \
	VADDPD        c, t, c; \
	VPSRLQ        $1, j, j; \
	VPTESTMQ.BCST int1<>(SB), j, ks; \
	VPSRLQ        $1, j, y; \
	VPXORQ        j, y, y; \
	VPSLLQ        $63, y, y; \
	VBLENDMPD     s, c, ks, c; \
	VPXORQ        y, c, c

// NORM sets r to Norm's values of eight pairs: u holds their u1
// integers from MIX, none of them 0, and s2 their u2 states. Every
// other register it names is scratch.
#define NORM(u, s2, r, x, f, s, a, b, t, j, y, zz, km, ks) \
	TOFLOAT(u); \
	MIX(s2, x, t); \
	TOFLOAT(x); \
	LOGSQRT(u, r, f, s, a, b, t, km); \
	COSTURN(x, f, j, y, zz, s, t, ks); \
	VMULPD f, r, r

// func normPairs512(dst []float64, state uint64) int
TEXT ·normPairs512(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), SI
	XORQ BX, BX // pairs done

	VPBROADCASTQ state+24(FP), Z0
	VPADDQ       oddG<>(SB), Z0, Z30  // Z30 = the lanes' u1 states
	VPADDQ       evenG<>(SB), Z0, Z31 // Z31 = the lanes' u2 states

loop:
	MOVQ SI, DX
	SUBQ BX, DX // DX = pairs left
	JLE  done
	CMPQ DX, $16
	JGE  pass2

	// One chunk of eight pairs, or a tail of the first DX.
one:
	KXNORB K1, K1, K1 // K1 = the active lanes: all eight
	CMPQ   DX, $8
	JGE    draw
	MOVQ   DX, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVB  AX, K1 // or the first DX

draw:
	// A u1 of 0 in an active lane ends the call before this chunk,
	// for Norm to draw it again.
	MIX(Z30, Z0, Z1)
	VPTESTNMQ Z0, Z0, K1, K2
	KORTESTB  K2, K2
	JNE       done
	NORM(Z0, Z31, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, K2, K3)

	CMPQ        DX, $8
	JLT         tail
	VMOVUPD     Z1, (DI)
	ADDQ        $64, DI
	ADDQ        $8, BX
	VPADDQ.BCST sixteenG<>(SB), Z30, Z30
	VPADDQ.BCST sixteenG<>(SB), Z31, Z31
	JMP         loop

tail:
	// The inactive lanes were computed in full; only the active ones
	// are stored.
	VMOVUPD Z1, K1, (DI)
	ADDQ    DX, BX
	JMP     done

	// Two chunks, once neither has a u1 of 0; otherwise the first
	// goes through the one-chunk body, which stops before the chunk
	// that has it.
pass2:
	MIX(Z30, Z0, Z1)
	VPADDQ.BCST sixteenG<>(SB), Z30, Z28
	MIX(Z28, Z11, Z1)
	VPTESTNMQ   Z0, Z0, K2
	VPTESTNMQ   Z11, Z11, K4
	KORTESTB    K2, K4
	JNE         one
	VPADDQ.BCST sixteenG<>(SB), Z31, Z29
	NORM(Z0, Z31, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, K2, K3)
	NORM(Z11, Z29, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, K4, K5)
	VMOVUPD     Z1, (DI)
	VMOVUPD     Z12, 64(DI)
	ADDQ        $128, DI
	ADDQ        $16, BX
	VPADDQ.BCST thirtyTwoG<>(SB), Z30, Z30
	VPADDQ.BCST thirtyTwoG<>(SB), Z31, Z31
	JMP         loop

done:
	VZEROUPPER
	MOVQ BX, ret+32(FP)
	RET
