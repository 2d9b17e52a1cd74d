#include "textflag.h"
#include "go_asm.h"

// AVX2 encoding of the cost table's prompt-channel fold (fusedvec.go).
// Every lane runs exactly the IEEE operation sequence of the Go loop it
// replaces, one packed instruction per scalar one, so results are
// bit-identical: packed add, sub, mul, div and the conversions are
// correctly rounded like their scalar forms, no FMA is used (the Go
// compiler never contracts x*y + z on amd64, at any GOAMD64 level), and a
// lane the Go loop would skip adds +0.0 instead. Commuted operands of a
// single add or multiply are exact. The taper comes from windowLUT.coef
// through the TAPER macro.

// BCAST4 declares a 32-byte read-only constant holding bits four times.
#define BCAST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(zero, 0x0000000000000000)
BCAST4(signmask, 0x8000000000000000)
BCAST4(absmask, 0x7fffffffffffffff)
BCAST4(one, 0x3ff0000000000000)
BCAST4(half, 0x3fe0000000000000)
BCAST4(fouropi, 0x3ff45f306dc9c883) // 4/Pi
BCAST4(pi4a, 0x3fe921fb40000000)
BCAST4(pi4b, 0x3e64442d00000000)
BCAST4(pi4c, 0x3ce8469898cc5170)
BCAST4(sin0, 0x3de5d8fd1fd19ccd)
BCAST4(sin1, 0xbe5ae5e5a9291f5d)
BCAST4(sin2, 0x3ec71de3567d48a1)
BCAST4(sin3, 0xbf2a01a019bfdf03)
BCAST4(sin4, 0x3f8111111110f7d0)
BCAST4(sin5, 0xbfc5555555555548)
BCAST4(cos0, 0xbda8fa49a0861a9b)
BCAST4(cos1, 0x3e21ee9d7b4e3f05)
BCAST4(cos2, 0xbe927e4f7eac4bc6)
BCAST4(cos3, 0x3efa01a019c844f5)
BCAST4(cos4, 0xbf56c16c16c14f91)
BCAST4(cos5, 0x3fa555555555554b)

DATA ones32<>+0(SB)/8, $0x0000000100000001
DATA ones32<>+8(SB)/8, $0x0000000100000001
GLOBL ones32<>(SB), RODATA|NOPTR, $16

// SINCOS is math.Sincos on four lanes, for finite non-zero |x| < 2^29
// (the callers route every other lane to math.Sincos): the Cephes
// reduction with PI4A/B/C, the odd-octant bump, both polynomials in
// math's order, then the swap and the signs. x is clobbered; the input
// sign rides in bit 63 of the octant register T1, whose bits 1 and 2
// give the swap and the reflections. XT2/XT3 are the X forms of T2/T3.
#define SINCOS(x, s, c, T1, T2, T3, XT2, XT3) \
	VANDPD    signmask<>(SB), x, T1; \
	VANDPD    absmask<>(SB), x, x; \
	VMULPD    fouropi<>(SB), x, T2; \
	VCVTTPD2DQY T2, XT2; \
	VPAND     ones32<>(SB), XT2, XT3; \
	VPADDD    XT3, XT2, XT2; \
	VCVTDQ2PD XT2, T3; \
	VPMOVSXDQ XT2, T2; \
	VORPD     T2, T1, T1; \
	VMULPD    pi4a<>(SB), T3, T2; \
	VSUBPD    T2, x, x; \
	VMULPD    pi4b<>(SB), T3, T2; \
	VSUBPD    T2, x, x; \
	VMULPD    pi4c<>(SB), T3, T2; \
	VSUBPD    T2, x, x; \
	VMULPD    x, x, T3; \
	VMULPD    cos0<>(SB), T3, c; \
	VADDPD    cos1<>(SB), c, c; \
	VMULPD    T3, c, c; \
	VADDPD    cos2<>(SB), c, c; \
	VMULPD    T3, c, c; \
	VADDPD    cos3<>(SB), c, c; \
	VMULPD    T3, c, c; \
	VADDPD    cos4<>(SB), c, c; \
	VMULPD    T3, c, c; \
	VADDPD    cos5<>(SB), c, c; \
	VMULPD    T3, T3, T2; \
	VMULPD    c, T2, c; \
	VMULPD    half<>(SB), T3, T2; \
	VMOVUPD   one<>(SB), s; \
	VSUBPD    T2, s, T2; \
	VADDPD    c, T2, c; \
	VMULPD    sin0<>(SB), T3, s; \
	VADDPD    sin1<>(SB), s, s; \
	VMULPD    T3, s, s; \
	VADDPD    sin2<>(SB), s, s; \
	VMULPD    T3, s, s; \
	VADDPD    sin3<>(SB), s, s; \
	VMULPD    T3, s, s; \
	VADDPD    sin4<>(SB), s, s; \
	VMULPD    T3, s, s; \
	VADDPD    sin5<>(SB), s, s; \
	VMULPD    T3, x, T2; \
	VMULPD    s, T2, s; \
	VADDPD    s, x, s; \
	VPSLLQ    $62, T1, T2; \
	VBLENDVPD T2, c, s, x; \
	VBLENDVPD T2, s, c, c; \
	VPSLLQ    $61, T1, T3; \
	VXORPD    T3, T2, T2; \
	VANDPD    signmask<>(SB), T2, T2; \
	VXORPD    T2, c, c; \
	VXORPD    T3, T1, T3; \
	VANDPD    signmask<>(SB), T3, T3; \
	VXORPD    T3, x, s

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func sincos4(x, s, c *[4]float64)
TEXT ·sincos4(SB), NOSPLIT, $0-24
	MOVQ    x+0(FP), AX
	MOVQ    s+8(FP), BX
	MOVQ    c+16(FP), CX
	VMOVUPD (AX), Y0
	SINCOS(Y0, Y1, Y2, Y3, Y4, Y5, X4, X5)
	VMOVUPD Y1, (BX)
	VMOVUPD Y2, (CX)
	VZEROUPPER
	RET

// TAPER evaluates the Kaiser taper of Reconstructor.window on four lanes
// at tap offset Y0, in windowLUT.at's order: x = dt·winScale, ax = x²,
// p = ax·lutInv, fr = p − int(p) on cell int(p) (clamped to lutSize−1
// first, which only lanes with ax >= 1 reach), then
// w = ((c3·fr + c2)·fr + c1)·fr + c0 from the cell's 32 bytes of coef
// at SI, four loads transposed. The frame slots ws, li and lutmax hold
// winScale, lutInv and lutSize−1 in four lanes; idx is 16 bytes of
// scratch. Leaves w in Y6 and in Y7 the lanes that contribute, ax < 1 and
// w != 0; clobbers Y2–Y5 and AX–DX.
#define TAPER(ws, li, lutmax, idx) \
	VMULPD      ws(SP), Y0, Y2; \
	VMULPD      Y2, Y2, Y2; \
	VCMPPD      $1, one<>(SB), Y2, Y7; \
	VMULPD      li(SP), Y2, Y2; \
	VMINPD      lutmax(SP), Y2, Y3; \
	VCVTTPD2DQY Y3, X3; \
	VCVTDQ2PD   X3, Y4; \
	VSUBPD      Y4, Y2, Y2; \
	VPSLLD      $5, X3, X3; \
	VMOVDQU     X3, idx(SP); \
	MOVL        (idx+0)(SP), AX; \
	MOVL        (idx+4)(SP), BX; \
	MOVL        (idx+8)(SP), CX; \
	MOVL        (idx+12)(SP), DX; \
	VMOVUPD     16(SI)(AX*1), X4; \
	VINSERTF128 $1, 16(SI)(CX*1), Y4, Y4; \
	VMOVUPD     16(SI)(BX*1), X5; \
	VINSERTF128 $1, 16(SI)(DX*1), Y5, Y5; \
	VUNPCKHPD   Y5, Y4, Y6; \
	VUNPCKLPD   Y5, Y4, Y4; \
	VMULPD      Y2, Y6, Y6; \
	VADDPD      Y4, Y6, Y6; \
	VMULPD      Y2, Y6, Y6; \
	VMOVUPD     (SI)(AX*1), X4; \
	VINSERTF128 $1, (SI)(CX*1), Y4, Y4; \
	VMOVUPD     (SI)(BX*1), X5; \
	VINSERTF128 $1, (SI)(DX*1), Y5, Y5; \
	VUNPCKHPD   Y5, Y4, Y3; \
	VUNPCKLPD   Y5, Y4, Y4; \
	VADDPD      Y3, Y6, Y6; \
	VMULPD      Y2, Y6, Y6; \
	VADDPD      Y4, Y6, Y6; \
	VCMPPD      $4, zero<>(SB), Y6, Y4; \
	VANDPD      Y4, Y7, Y7

// LUTMAX stores lutSize−1 in four lanes at slot(SP): the cell index
// clamp, which only lanes the mask drops can reach.
#define LUTMAX(slot) \
	MOVQ         $(const_lutSize-1), AX; \
	VCVTSI2SDQ   AX, X2, X2; \
	VBROADCASTSD X2, Y2; \
	VMOVUPD      Y2, slot(SP)

// BC broadcasts the float64 at src to four lanes at slot(SP).
#define BC(src, slot) \
	VBROADCASTSD src, Y2; \
	VMOVUPD      Y2, slot(SP)

// Frame of costRows4: the per-row scalars broadcast once, the index clamp
// and the per-tap cell byte offsets.
#define R_WS 0
#define R_LI 32
#define R_A0 64
#define R_B0 96
#define R_A1 128
#define R_TS 160
#define R_LUTMAX 192
#define R_IDX 224

// ACCUM adds (u − v)·inv to acc in the lanes that contribute, with inv in
// Y6 and the lane mask in Y7.
#define ACCUM(u, v, acc) \
	VSUBPD v, u, Y1; \
	VMULPD Y6, Y1, Y1; \
	VANDPD Y7, Y1, Y1; \
	VADDPD Y1, acc, acc

// func costRows4(l *rowLanes)
//
// The Kaiser-window tap fold of CostTable on four rows of equal tap
// count: the taper (TAPER), inv = ch0·w / dt0, and three Sincos per tap
// (b1 == a0).
TEXT ·costRows4(SB), 0, $240-8
	MOVQ    l+0(FP), DI
	VMOVUPD rowLanes_dt0(DI), Y0
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13
	VXORPD  Y14, Y14, Y14
	VXORPD  Y15, Y15, Y15
	MOVQ    rowLanes_n(DI), R13
	SHLQ    $3, R13
	MOVQ    rowLanes_coef(DI), SI
	MOVQ    (rowLanes_ch0+0)(DI), R8
	MOVQ    (rowLanes_ch0+8)(DI), R9
	MOVQ    (rowLanes_ch0+16)(DI), R10
	MOVQ    (rowLanes_ch0+24)(DI), R11
	XORQ    R12, R12
	BC(rowLanes_winScale(DI), R_WS)
	BC(rowLanes_lutInv(DI), R_LI)
	BC(rowLanes_a0(DI), R_A0)
	BC(rowLanes_b0(DI), R_B0)
	BC(rowLanes_a1(DI), R_A1)
	BC(rowLanes_tStep(DI), R_TS)
	LUTMAX(R_LUTMAX)

row:
	TAPER(R_WS, R_LI, R_LUTMAX, R_IDX)

	// inv = ch0·w / dt0.
	VMOVSD      (R8)(R12*1), X2
	VMOVHPD     (R9)(R12*1), X2, X2
	VMOVSD      (R10)(R12*1), X3
	VMOVHPD     (R11)(R12*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPD      Y6, Y2, Y2
	VDIVPD      Y0, Y2, Y6

	// The (a0, b0) pair, then (a1, b1) with b1 = a0.
	VMULPD R_A0(SP), Y0, Y1
	SINCOS(Y1, Y8, Y9, Y2, Y3, Y4, X3, X4)
	VMULPD R_B0(SP), Y0, Y1
	SINCOS(Y1, Y10, Y11, Y2, Y3, Y4, X3, X4)
	ACCUM(Y9, Y11, Y12)
	ACCUM(Y8, Y10, Y13)
	VMULPD R_A1(SP), Y0, Y1
	SINCOS(Y1, Y10, Y11, Y2, Y3, Y4, X3, X4)
	ACCUM(Y11, Y9, Y14)
	ACCUM(Y10, Y8, Y15)

	VSUBPD R_TS(SP), Y0, Y0
	ADDQ   $8, R12
	CMPQ   R12, R13
	JLT    row

	VMOVUPD Y12, (rowLanes_out+0)(DI)
	VMOVUPD Y13, (rowLanes_out+32)(DI)
	VMOVUPD Y14, (rowLanes_out+64)(DI)
	VMOVUPD Y15, (rowLanes_out+96)(DI)
	VZEROUPPER
	RET
