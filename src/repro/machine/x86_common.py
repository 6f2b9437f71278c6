"""Shared x86-64 instruction vocabulary.

Golden Cove and Zen 4 execute the same instruction set; what differs is
the port bindings, latencies, and divider behaviour.  This module builds
the (mnemonic, signature) entry list once from a per-microarchitecture
:class:`X86Params` record, so each model file states only the numbers.

The vocabulary covers everything the kernel code generator emits plus
the common compiler output around it (spills, address setup, compares,
conversions, shuffles, gathers, NT stores, AVX-512 mask ops).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import InstrEntry, uop

#: x86 vector width codes in increasing size
WIDTHS = ("x", "y", "z")


@dataclass
class X86Params:
    """Per-microarchitecture numbers feeding :func:`build_x86_entries`.

    Port-map dictionaries are keyed by vector width code (``x``/``y``/
    ``z``); ``uops_per_op`` is 2 for double-pumped widths (Zen 4 zmm).
    """

    alu: str
    shift: str
    branch: str
    lea: str
    imul: str
    imul_lat: float

    fp_add: dict[str, str]
    fp_mul: dict[str, str]
    fp_fma: dict[str, str]
    fp_add_lat: float
    fp_mul_lat: float
    fp_fma_lat: float
    fp_add_lat_scalar: float
    fp_mul_lat_scalar: float
    fp_fma_lat_scalar: float

    fp_div_port: str
    #: divider occupancy per width code plus "s" for scalar
    div_cycles: dict[str, float]
    div_lat: dict[str, float]
    sqrt_cycles: dict[str, float]
    sqrt_lat: dict[str, float]

    fp_bool: dict[str, str]
    shuffle: dict[str, str]
    shuffle_lat: float
    cross_lane: dict[str, str]
    cross_lane_lat: float
    vec_int: dict[str, str]
    vec_int_lat: float

    transfer: str  #: gpr <-> vec transfer port(s)
    transfer_lat: float
    cvt: dict[str, str]
    cvt_lat: float
    fp_cmp_lat: float

    #: gather: width code -> (reciprocal throughput, latency)
    gather: dict[str, tuple[float, float]]
    gather_extra_ports: str

    mask_ports: str = ""  #: AVX-512 mask ALU (empty if no AVX-512 masks)
    mask_lat: float = 1.0
    #: µops per arithmetic op, per width (double pumping)
    uops_per_op: dict[str, int] = field(default_factory=lambda: {"x": 1, "y": 1, "z": 1})
    has_avx512: bool = True


def _arith(
    mnemonics: list[str],
    width: str,
    ports: str,
    lat: float,
    n_uops: int,
    three_op: bool,
    notes: str = "",
    divider: float = 0.0,
    throughput: float | None = None,
) -> list[InstrEntry]:
    sig = ",".join([width] * (3 if three_op else 2))
    us = tuple(uop(ports) for _ in range(n_uops))
    return [
        InstrEntry(m, sig, us, latency=lat, divider=divider, throughput=throughput, notes=notes)
        for m in mnemonics
    ]


def build_x86_entries(p: X86Params) -> list[InstrEntry]:
    """Construct the full x86 entry list for one microarchitecture."""
    E: list[InstrEntry] = []
    widths = WIDTHS if p.has_avx512 else ("x", "y")

    # -- integer core -------------------------------------------------------
    alu = (uop(p.alu),)
    for sig in ("r,r", "i,r"):
        for m in ("add", "sub", "and", "or", "xor", "adc", "sbb", "cmp", "test"):
            E.append(InstrEntry(m, sig, alu, latency=1.0))
        E.append(InstrEntry("mov", sig, () if sig == "r,r" else alu,
                            latency=0.0 if sig == "r,r" else 1.0,
                            notes="move elimination" if sig == "r,r" else ""))
    E.append(InstrEntry("movabs", "i,r", alu, latency=1.0))
    for m in ("inc", "dec", "neg", "not"):
        E.append(InstrEntry(m, "r", alu, latency=1.0))
    for sig in ("r,r", "i,r,r"):
        E.append(InstrEntry("imul", sig, (uop(p.imul),), latency=p.imul_lat))
    E.append(InstrEntry("lea", "m,r", (uop(p.lea),), latency=1.0))
    for m in ("shl", "shr", "sar", "sal", "rol", "ror"):
        for sig in ("i,r", "r,r", "r"):
            E.append(InstrEntry(m, sig, (uop(p.shift),), latency=1.0))
    for m in ("movzx", "movsx", "movzb", "movsbl", "movzbl", "movslq", "movzwl"):
        E.append(InstrEntry(m, "r,r", alu, latency=1.0))
    E.append(InstrEntry("set*", "r", alu, latency=1.0))
    E.append(InstrEntry("cmov*", "r,r", alu, latency=1.0))
    for m in ("cdq", "cqo", "cdqe", "cltq", "cltd", "cqto"):
        E.append(InstrEntry(m, "", alu, latency=1.0))
        E.append(InstrEntry(m, "*", alu, latency=1.0))
    E.append(InstrEntry("nop", "*", (), latency=0.0))
    # memory-form int ops: pure load/store handled by folding
    for m in ("mov", "movzx", "movsx"):
        E.append(InstrEntry(m, "m,r", (), latency=0.0, notes="pure load"))
    E.append(InstrEntry("mov", "r,m", (), latency=1.0, notes="pure store"))
    E.append(InstrEntry("mov", "i,m", (), latency=1.0, notes="pure store"))
    E.append(InstrEntry("movnti", "r,m", (), latency=1.0, notes="NT store"))
    for m in ("add", "sub", "and", "or", "xor", "cmp", "test"):
        E.append(InstrEntry(m, "m,r", alu, latency=1.0))
        E.append(InstrEntry(m, "r,m", alu, latency=1.0))
        E.append(InstrEntry(m, "i,m", alu, latency=1.0))
    E.append(InstrEntry("push", "r", (), latency=1.0))
    E.append(InstrEntry("pop", "r", (), latency=1.0))
    # integer divide (rarely in FP kernels, modeled coarsely)
    for m in ("div", "idiv"):
        E.append(InstrEntry(m, "r", (uop(p.fp_div_port),), latency=20.0, divider=12.0))

    # -- control flow --------------------------------------------------------
    br = (uop(p.branch),)
    E.append(InstrEntry("jmp", "l", br, latency=0.0))
    E.append(InstrEntry("j*", "l", br, latency=0.0, notes="cond. branch"))
    E.append(InstrEntry("call", "*", br, latency=0.0))
    E.append(InstrEntry("ret", "*", br, latency=0.0))

    # -- FP scalar & packed arithmetic ---------------------------------------
    ADD_LIKE = ["addpd", "addps", "subpd", "subps", "minpd", "minps", "maxpd", "maxps"]
    MUL_LIKE = ["mulpd", "mulps"]
    ADD_LIKE_S = ["addsd", "addss", "subsd", "subss", "minsd", "minss", "maxsd", "maxss"]
    MUL_LIKE_S = ["mulsd", "mulss"]

    for w in widths:
        n = p.uops_per_op.get(w, 1)
        # VEX three-operand forms for all widths
        E += _arith(["v" + m for m in ADD_LIKE], w, p.fp_add[w], p.fp_add_lat, n, True)
        E += _arith(["v" + m for m in MUL_LIKE], w, p.fp_mul[w], p.fp_mul_lat, n, True)
        fma = [
            f"v{k}{o}{t}"
            for k in ("fmadd", "fmsub", "fnmadd", "fnmsub")
            for o in ("132", "213", "231")
            for t in ("pd", "ps")
        ]
        E += _arith(fma, w, p.fp_fma[w], p.fp_fma_lat, n, True)
        E += _arith(["vdivpd", "vdivps"], w, p.fp_div_port, p.div_lat[w], n, True,
                    divider=p.div_cycles[w])
        E += _arith(["vsqrtpd", "vsqrtps"], w, p.fp_div_port, p.sqrt_lat[w], n, False,
                    divider=p.sqrt_cycles[w])
        bools = ["vxorpd", "vxorps", "vandpd", "vandps", "vorpd", "vorps",
                 "vandnpd", "vandnps", "vpxor", "vpand", "vpor", "vpandn"]
        if w == "z":
            bools = [b + sfx for b in bools for sfx in ("", "d", "q")] if False else bools
        E += _arith(bools, w, p.fp_bool[w], 1.0, n, True)
        vint = ["vpaddd", "vpaddq", "vpsubd", "vpsubq", "vpcmpeqd", "vpcmpeqq"]
        E += _arith(vint, w, p.vec_int[w], p.vec_int_lat, n, True)
        E += _arith(["vpmulld", "vpmuludq", "vpmuldq"], w, p.fp_mul[w], 5.0, n, True)
        # shuffles (two- and three-operand forms appear in compiler output)
        shufs2 = ["vpermilpd", "vpermilps", "vmovddup", "vmovshdup", "vmovsldup"]
        shufs3 = ["vunpckhpd", "vunpcklpd", "vunpckhps", "vunpcklps", "vshufpd", "vshufps"]
        E += _arith(shufs2, w, p.shuffle[w], p.shuffle_lat, 1, False)
        E += _arith(shufs3, w, p.shuffle[w], p.shuffle_lat, 1, True)
        E.append(InstrEntry("vshufpd", f"i,{w},{w},{w}", (uop(p.shuffle[w]),), latency=p.shuffle_lat))
        E.append(InstrEntry("vpermilpd", f"i,{w},{w}", (uop(p.shuffle[w]),), latency=p.shuffle_lat))
        E += _arith(["vblendvpd", "vblendvps"], w, p.fp_bool[w], 2.0, n, True)
        E.append(InstrEntry("vcmppd", f"i,{w},{w},{w}", (uop(p.fp_add[w]),), latency=p.fp_cmp_lat))

    # SSE two-operand legacy forms (xmm only)
    E += _arith(ADD_LIKE, "x", p.fp_add["x"], p.fp_add_lat, 1, False)
    E += _arith(MUL_LIKE, "x", p.fp_mul["x"], p.fp_mul_lat, 1, False)
    E += _arith(["divpd", "divps"], "x", p.fp_div_port, p.div_lat["x"], 1, False,
                divider=p.div_cycles["x"])
    E += _arith(["sqrtpd", "sqrtps"], "x", p.fp_div_port, p.sqrt_lat["x"], 1, False,
                divider=p.sqrt_cycles["x"])
    E += _arith(["xorpd", "xorps", "andpd", "andps", "orpd", "orps", "pxor",
                 "pand", "por", "pandn"], "x", p.fp_bool["x"], 1.0, 1, False)
    E += _arith(["paddd", "paddq", "psubd", "psubq"], "x", p.vec_int["x"],
                p.vec_int_lat, 1, False)
    E += _arith(["unpckhpd", "unpcklpd", "shufpd", "movddup"], "x", p.shuffle["x"],
                p.shuffle_lat, 1, False)
    E.append(InstrEntry("shufpd", "i,x,x", (uop(p.shuffle["x"]),), latency=p.shuffle_lat))
    E += _arith(["haddpd", "haddps"], "x", p.shuffle["x"], 6.0, 3, False)
    E += _arith(["vhaddpd", "vhaddps"], "x", p.shuffle["x"], 6.0, 3, True)

    # scalar forms (both SSE 2-op and AVX 3-op)
    for three in (False, True):
        pre = "v" if three else ""
        E += _arith([pre + m for m in ADD_LIKE_S], "x", p.fp_add["x"],
                    p.fp_add_lat_scalar, 1, three)
        E += _arith([pre + m for m in MUL_LIKE_S], "x", p.fp_mul["x"],
                    p.fp_mul_lat_scalar, 1, three)
        E += _arith([pre + "divsd", pre + "divss"], "x", p.fp_div_port,
                    p.div_lat["s"], 1, three, divider=p.div_cycles["s"])
        E += _arith([pre + "sqrtsd", pre + "sqrtss"], "x", p.fp_div_port,
                    p.sqrt_lat["s"], 1, three, divider=p.sqrt_cycles["s"])
    fma_s = [
        f"vf{k}{o}{t}"
        for k in ("madd", "msub", "nmadd", "nmsub")
        for o in ("132", "213", "231")
        for t in ("sd", "ss")
    ]
    E += _arith(fma_s, "x", p.fp_fma["x"], p.fp_fma_lat_scalar, 1, True)

    # FP compares to flags
    for m in ("ucomisd", "ucomiss", "comisd", "comiss",
              "vucomisd", "vucomiss", "vcomisd", "vcomiss"):
        E.append(InstrEntry(m, "x,x", (uop(p.fp_add["x"]),), latency=p.fp_cmp_lat))

    # conversions
    cvt_like = ["cvtsi2sd", "cvtsi2ss", "vcvtsi2sd", "vcvtsi2ss",
                "cvtsi2sdq", "vcvtsi2sdq", "cvtsi2sdl", "vcvtsi2sdl"]
    for m in cvt_like:
        E.append(InstrEntry(m, "r,x", (uop(p.transfer), uop(p.cvt["x"])),
                            latency=p.cvt_lat + p.transfer_lat))
        E.append(InstrEntry(m, "r,x,x", (uop(p.transfer), uop(p.cvt["x"])),
                            latency=p.cvt_lat + p.transfer_lat))
    for m in ("cvttsd2si", "cvttss2si", "vcvttsd2si", "cvtsd2si", "vcvtsd2si"):
        E.append(InstrEntry(m, "x,r", (uop(p.cvt["x"]), uop(p.transfer)),
                            latency=p.cvt_lat + p.transfer_lat))
    for m in ("cvtsd2ss", "cvtss2sd", "vcvtsd2ss", "vcvtss2sd"):
        E.append(InstrEntry(m, "*", (uop(p.cvt["x"]),), latency=p.cvt_lat))
    for w in widths:
        for m in ("vcvtdq2pd", "vcvtpd2dq", "vcvttpd2dq", "vcvtps2pd", "vcvtpd2ps",
                  "vcvtdq2ps", "vcvtqq2pd", "vcvtpd2qq"):
            E.append(InstrEntry(m, f"{w},{w}", (uop(p.cvt[w]),), latency=p.cvt_lat))
            if w != "z":
                nxt = widths[min(widths.index(w) + 1, len(widths) - 1)]
                E.append(InstrEntry(m, f"{w},{nxt}", (uop(p.cvt[nxt]),), latency=p.cvt_lat))
                E.append(InstrEntry(m, f"{nxt},{w}", (uop(p.cvt[nxt]),), latency=p.cvt_lat))

    # register transfers
    for m in ("movq", "movd", "vmovq", "vmovd"):
        E.append(InstrEntry(m, "x,r", (uop(p.transfer),), latency=p.transfer_lat))
        E.append(InstrEntry(m, "r,x", (uop(p.transfer),), latency=p.transfer_lat))

    # -- moves, loads, stores -------------------------------------------------
    vec_movs = ["movapd", "movaps", "movupd", "movups", "movdqa", "movdqu",
                "vmovapd", "vmovaps", "vmovupd", "vmovups", "vmovdqa", "vmovdqu",
                "vmovdqa64", "vmovdqu64", "vmovdqa32", "vmovdqu32"]
    for m in vec_movs:
        for w in widths:
            E.append(InstrEntry(m, f"{w},{w}", (), latency=0.0, notes="move elimination"))
            E.append(InstrEntry(m, f"m,{w}", (), latency=0.0, notes="pure load"))
            E.append(InstrEntry(m, f"{w},m", (), latency=1.0, notes="pure store"))
    for m in ("movsd", "movss", "vmovsd", "vmovss", "movlpd", "movhpd",
              "vmovlpd", "vmovhpd", "movq", "movd", "vmovq", "vmovd"):
        E.append(InstrEntry(m, "m,x", (), latency=0.0, notes="pure load"))
        E.append(InstrEntry(m, "x,m", (), latency=1.0, notes="pure store"))
    for m in ("movsd", "movss", "vmovsd", "vmovss"):
        E.append(InstrEntry(m, "x,x", (uop(p.shuffle["x"]),), latency=1.0,
                            notes="merging move"))
        E.append(InstrEntry(m, "x,x,x", (uop(p.shuffle["x"]),), latency=1.0))
    # NT stores
    for m in ("vmovntpd", "vmovntps", "movntpd", "movntps", "movntdq", "vmovntdq"):
        for w in widths:
            E.append(InstrEntry(m, f"{w},m", (), latency=1.0, notes="NT store"))

    # broadcasts
    for m in ("vbroadcastsd", "vbroadcastss", "vpbroadcastq", "vpbroadcastd"):
        for w in ("y", "z") if p.has_avx512 else ("y",):
            E.append(InstrEntry(m, f"x,{w}", (uop(p.shuffle[w]),), latency=p.shuffle_lat + 2))
            E.append(InstrEntry(m, f"m,{w}", (), latency=0.0, notes="bcast load (fused)"))
        E.append(InstrEntry(m, "x,x", (uop(p.shuffle["x"]),), latency=p.shuffle_lat))
        E.append(InstrEntry(m, "m,x", (), latency=0.0, notes="bcast load (fused)"))
    for m in ("vbroadcastf128", "vbroadcastf64x4"):
        E.append(InstrEntry(m, "*", (), latency=0.0, notes="bcast load (fused)"))

    # cross-lane shuffles / insert / extract
    for w in ("y", "z") if p.has_avx512 else ("y",):
        for m in ("vperm2f128", "vpermpd", "vpermq", "vpermd", "vperm2i128"):
            for sig in (f"i,{w},{w}", f"i,{w},{w},{w}", f"{w},{w},{w}"):
                E.append(InstrEntry(m, sig, (uop(p.cross_lane[w]),),
                                    latency=p.cross_lane_lat))
        E.append(InstrEntry("vextractf128", f"i,{w},x", (uop(p.cross_lane[w]),),
                            latency=p.cross_lane_lat))
        E.append(InstrEntry("vinsertf128", f"i,x,{w},{w}", (uop(p.cross_lane[w]),),
                            latency=p.cross_lane_lat))
        E.append(InstrEntry("vextractf64x4", f"i,{w},y", (uop(p.cross_lane[w]),),
                            latency=p.cross_lane_lat))
        E.append(InstrEntry("vinsertf64x4", f"i,y,{w},{w}", (uop(p.cross_lane[w]),),
                            latency=p.cross_lane_lat))
    E.append(InstrEntry("vextractf128", "i,y,m", (uop(p.cross_lane["y"]),), latency=1.0))
    E.append(InstrEntry("vzeroupper", "*", (), latency=0.0))

    # gathers (EVEX masked and AVX2 forms)
    for m in ("vgatherdpd", "vgatherqpd"):
        for w in widths:
            tput, lat = p.gather[w]
            extra = (uop(p.gather_extra_ports), uop(p.gather_extra_ports))
            E.append(InstrEntry(m, f"g,{w}", extra, latency=lat, throughput=tput,
                                notes="gather"))
            E.append(InstrEntry(m, f"{w},g,{w}", extra, latency=lat, throughput=tput,
                                notes="gather (AVX2 form)"))

    # -- BMI / bit manipulation ------------------------------------------------
    for m in ("popcnt", "lzcnt", "tzcnt"):
        E.append(InstrEntry(m, "r,r", (uop(p.imul),), latency=3.0))
        E.append(InstrEntry(m, "m,r", (uop(p.imul),), latency=3.0))
    for m in ("andn", "bextr", "bzhi"):
        E.append(InstrEntry(m, "r,r,r", alu, latency=1.0))
    for m in ("blsi", "blsr", "blsmsk"):
        E.append(InstrEntry(m, "r,r", alu, latency=1.0))
    for m in ("shlx", "shrx", "sarx"):
        E.append(InstrEntry(m, "r,r,r", (uop(p.shift),), latency=1.0))
    E.append(InstrEntry("rorx", "i,r,r", (uop(p.shift),), latency=1.0))
    E.append(InstrEntry("mulx", "r,r,r", (uop(p.imul),), latency=p.imul_lat + 1))
    for m in ("adcx", "adox"):
        E.append(InstrEntry(m, "r,r", alu, latency=1.0))
    E.append(InstrEntry("bswap", "r", (uop(p.shift),), latency=1.0))
    for m in ("bt", "bts", "btr", "btc"):
        E.append(InstrEntry(m, "r,r", alu, latency=1.0))
        E.append(InstrEntry(m, "i,r", alu, latency=1.0))
    for m in ("bsf", "bsr"):
        E.append(InstrEntry(m, "r,r", (uop(p.imul),), latency=3.0))
    E.append(InstrEntry("xchg", "r,r", (uop(p.alu), uop(p.alu), uop(p.alu)),
                        latency=2.0))

    # -- approximations and rounding -------------------------------------------
    for w in widths:
        n = p.uops_per_op.get(w, 1)
        E += _arith(["vrcpps", "vrsqrtps", "vrcp14pd", "vrcp14ps",
                     "vrsqrt14pd", "vrsqrt14ps"], w, p.fp_mul[w], 4.0, n, False)
        E += _arith(["vroundpd", "vroundps", "vrndscalepd", "vrndscaleps"],
                    w, p.fp_add[w], 8.0, n, False)
        E.append(InstrEntry("vroundpd", f"i,{w},{w}", (uop(p.fp_add[w]),), latency=8.0))
        E.append(InstrEntry("vrndscalepd", f"i,{w},{w}", (uop(p.fp_add[w]),), latency=8.0))
        E += _arith(["vgetexppd", "vgetmantpd", "vreducepd"], w, p.fp_mul[w],
                    4.0, n, False)
    for m in ("vroundsd", "vroundss", "roundsd", "roundss"):
        E.append(InstrEntry(m, "*", (uop(p.fp_add["x"]),), latency=8.0))
    E.append(InstrEntry("vrcpss", "*", (uop(p.fp_mul["x"]),), latency=4.0))
    E.append(InstrEntry("vrsqrtss", "*", (uop(p.fp_mul["x"]),), latency=4.0))

    # -- integer vector extensions ----------------------------------------------
    for w in widths:
        n = p.uops_per_op.get(w, 1)
        E += _arith(["vpminsd", "vpmaxsd", "vpminud", "vpmaxud", "vpabsd",
                     "vpabsq", "vpsignd"], w, p.vec_int[w], p.vec_int_lat, n, True)
        E += _arith(["vpsllq", "vpsrlq", "vpslld", "vpsrld", "vpsraq", "vpsrad"],
                    w, p.shuffle[w], 1.0, n, True)
        for m in ("vpsllq", "vpsrlq", "vpslld", "vpsrld"):
            E.append(InstrEntry(m, f"i,{w},{w}", (uop(p.shuffle[w]),), latency=1.0))
        E += _arith(["vpackssdw", "vpackusdw", "vpshufb", "vpalignr"],
                    w, p.shuffle[w], p.shuffle_lat, n, True)
        E += _arith(["vpaddw", "vpaddb", "vpsubw", "vpsubb", "vpavgb", "vpavgw"],
                    w, p.vec_int[w], p.vec_int_lat, n, True)
        for m in ("vpmovzxdq", "vpmovsxdq", "vpmovzxwd", "vpmovsxwd",
                  "vpmovzxbw", "vpmovsxbw"):
            E.append(InstrEntry(m, f"x,{w}", (uop(p.shuffle[w]),), latency=3.0))
            E.append(InstrEntry(m, f"{w},{w}", (uop(p.shuffle[w]),), latency=3.0))
        E += _arith(["vpblendd", "vblendpd", "vblendps"], w, p.fp_bool[w], 1.0, n, True)
        E.append(InstrEntry("vpblendd", f"i,{w},{w},{w}", (uop(p.fp_bool[w]),), latency=1.0))
        E.append(InstrEntry("vblendpd", f"i,{w},{w},{w}", (uop(p.fp_bool[w]),), latency=1.0))
        E += _arith(["vphaddd", "vphsubd"], w, p.shuffle[w], 3.0, 3, True)
        E += _arith(["vpmaddwd", "vpmaddubsw"], w, p.fp_mul[w], 5.0, n, True)

    # -- AVX-512-only data movement ----------------------------------------------
    if p.has_avx512:
        for w in ("y", "z"):
            for m in ("vpermt2pd", "vpermi2pd", "vpermt2d", "vpermi2d",
                      "vpermpd", "vpermps"):
                E.append(InstrEntry(m, f"{w},{w},{w}", (uop(p.cross_lane[w]),),
                                    latency=p.cross_lane_lat))
            for m in ("vcompresspd", "vcompressps", "vexpandpd", "vexpandps"):
                E.append(InstrEntry(m, f"{w},{w}", (uop(p.cross_lane[w]), uop(p.shuffle[w])),
                                    latency=p.cross_lane_lat + 1))
            E.append(InstrEntry("vplzcntd", f"{w},{w}", (uop(p.vec_int[w]),), latency=4.0))
            E.append(InstrEntry("vpconflictd", f"{w},{w}", (uop(p.cross_lane[w]),),
                                latency=p.cross_lane_lat + 9))
            E.append(InstrEntry("vpternlogd", f"i,{w},{w},{w}", (uop(p.fp_bool[w]),),
                                latency=1.0))
            E.append(InstrEntry("vpternlogq", f"i,{w},{w},{w}", (uop(p.fp_bool[w]),),
                                latency=1.0))
        # scatter stores (vector-indexed memory destination)
        for m in ("vscatterdpd", "vscatterqpd"):
            for w in widths:
                tput, lat = p.gather[w]
                E.append(InstrEntry(m, f"{w},g", (uop(p.gather_extra_ports),),
                                    latency=lat, throughput=tput * 2,
                                    notes="scatter"))
        for m in ("vmovdqu8", "vmovdqu16"):
            for w in widths:
                E.append(InstrEntry(m, f"{w},{w}", (), latency=0.0,
                                    notes="move elimination"))
                E.append(InstrEntry(m, f"m,{w}", (), latency=0.0, notes="pure load"))
                E.append(InstrEntry(m, f"{w},m", (), latency=1.0, notes="pure store"))
        E.append(InstrEntry("vbroadcasti128", "*", (), latency=0.0,
                            notes="bcast load (fused)"))
        E.append(InstrEntry("vbroadcasti64x4", "*", (), latency=0.0,
                            notes="bcast load (fused)"))

    # -- AVX-512 mask ops
    if p.has_avx512 and p.mask_ports:
        for m in ("kmovb", "kmovw", "kmovd", "kmovq"):
            E.append(InstrEntry(m, "k,k", (uop(p.mask_ports),), latency=p.mask_lat))
            E.append(InstrEntry(m, "r,k", (uop(p.transfer),), latency=p.transfer_lat))
            E.append(InstrEntry(m, "k,r", (uop(p.transfer),), latency=p.transfer_lat))
        for m in ("kandw", "korw", "kxorw", "kandnw", "knotw", "kxnorw",
                  "kandq", "korq", "kxorq", "kxnorq", "kaddw", "kaddq",
                  "kunpckbw", "kunpckwd", "kunpckdq"):
            E.append(InstrEntry(m, "*", (uop(p.mask_ports),), latency=p.mask_lat))
        for m in ("kortestw", "kortestq", "ktestw", "ktestq"):
            E.append(InstrEntry(m, "k,k", (uop(p.mask_ports),), latency=p.mask_lat))
        for m in ("kshiftlw", "kshiftrw", "kshiftlq", "kshiftrq"):
            E.append(InstrEntry(m, "i,k,k", (uop(p.mask_ports),), latency=p.mask_lat + 2))
        for w in widths:
            E.append(InstrEntry("vcmppd", f"i,{w},{w},k", (uop(p.fp_add[w]),),
                                latency=p.fp_cmp_lat))
            E.append(InstrEntry("vpcmpgtq", f"{w},{w},k", (uop(p.fp_add[w]),),
                                latency=p.fp_cmp_lat))

    return E
