"""Byte-identity gate for the renderers.

Pins sha256 digests of ``Bitmap.to_ppm()`` bytes and SVG text, plus the
``raster_components`` boxes, for bar, line and pie specs on every canvas in
``CANVAS_CHOICES``: vanilla, with a datapoint cross, with crosses clipped at
canvas corners, with a text-marker edit and with overlays. Hand-made edge
specs the corpus never produces (no title or legend, a title that needs SVG
escaping, one category, a zero bar) are pinned vanilla, with corner crosses
and with a full-canvas overlay. The bar and line digests were recorded from
the original per-primitive rasterizer; the pie PPM digests were re-recorded
once, when wedges became exact disc sectors in place of a 64-sided polygon fan
(only rim pixels changed). A faster kernel must reproduce them exactly.
Re-record (``python tests/test_render_golden.py``) only for a deliberate pixel
change that is named as such.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from chartcot.cot import KIND_GROUNDING, Step
from chartcot.geometry import ElementRef, PixelBBox
from chartcot.layout import layout
from chartcot.marker import apply_marker, raster_components
from chartcot.render import marker_svg, overlay_svg, paint_markers, paint_overlays, rasterize, render_svg
from chartcot.spec import CANVAS_CHOICES, ChartSpec, Series, generate_corpus, validate_spec

CHART_TYPES = ("bar", "line", "pie")
VARIANTS = ("vanilla", "cross", "corner", "text", "overlay")
EDGE_VARIANTS = ("vanilla", "corner", "full")


def _grounding(target: ElementRef) -> Step:
    return Step(index=0, kind=KIND_GROUNDING, text="", target=target)


def _base_specs():
    """Per chart type, one corpus spec per canvas choice (k-th spec on canvas k)."""
    corpus = generate_corpus(seed=2024, n=45, type_mix={"bar": 1.0, "line": 1.0, "pie": 1.0})
    for ctype in CHART_TYPES:
        specs = [s for s in corpus if s.chart_type == ctype]
        for k, canvas in enumerate(CANVAS_CHOICES):
            yield ctype, canvas, validate_spec(replace(specs[k], canvas=canvas))


def _edge_spec(name, chart_type, title, series, x_labels, legend, canvas, style_seed):
    return validate_spec(ChartSpec(
        id=f"edge-{name}", chart_type=chart_type, title=title,
        series=tuple(Series(n, tuple(vs)) for n, vs in series), x_labels=tuple(x_labels),
        canvas=canvas, style_seed=style_seed, legend=legend, value_labels=False,
    ))


def _edge_specs():
    """(name, spec) for the cases the corpus never draws."""
    yield "bar-untitled", _edge_spec(
        "bar-untitled", "bar", "", [("Units", (12.0, 30.5, 7.25))], ("North", "South", "East"),
        False, (800, 600), 3)
    yield "line-escaped-title", _edge_spec(
        "line-escaped-title", "line", 'R&D <"net"> > cost', [("Plan", (4.0, 9.0, 6.5)), ("Actual", (5.5, 8.0, 2.0))],
        ("Q1", "Q2", "Q3"), True, (960, 600), 1)
    yield "line-one-category", _edge_spec(
        "line-one-category", "line", "Single quarter", [("Plan", (4.0,)), ("Actual", (6.5,))], ("Q1",),
        True, (1000, 640), 5)
    yield "bar-zero", _edge_spec(
        "bar-zero", "bar", "Zero output", [("Old", (0.0, 3.5, 7.0)), ("New", (2.0, 0.0, 5.0))],
        ("Mon", "Tue", "Wed"), True, (1120, 700), 6)
    yield "pie-one-category", _edge_spec(
        "pie-one-category", "pie", "Whole", [("Share", (5.0,))], ("All",), False, (960, 720), 2)


def _text_target(spec, k: int) -> ElementRef:
    if spec.legend and k % 3 == 2:
        return ElementRef("legend_entry", series=spec.series[-1].name)
    if k % 3 == 1 or spec.chart_type == "pie":
        return ElementRef("x_tick", category=spec.x_labels[k % len(spec.x_labels)])
    return ElementRef("title")


def _render_case(spec, k: int, variant: str):
    w, h = spec.canvas
    markers: list = []
    overlays: list = []
    if variant == "cross":
        target = ElementRef("datapoint", series=spec.series[-1].name, category=spec.x_labels[-1])
        edit = apply_marker(spec, _grounding(target))
        markers = list(edit.markers)
    elif variant == "corner":
        markers = [(0.4, 1.0), (w - 0.5, h - 2.0)]
    elif variant == "text":
        spec = apply_marker(spec, _grounding(_text_target(spec, k))).spec
    elif variant == "full":
        overlays = [PixelBBox(0.0, 0.0, float(w), float(h))]
    elif variant == "overlay":
        target = ElementRef("datapoint", series=spec.series[0].name, category=spec.x_labels[0])
        overlays = [
            layout(spec)[target],
            PixelBBox(0.0, 0.0, 60.5, 40.25),
            PixelBBox(w - 90.25, h - 33.5, float(w), float(h)),
        ]
    svg, _ = render_svg(spec, overlays=overlays, markers=markers)
    bmp, _ = rasterize(spec, markers=markers, overlays=overlays)
    ppm_digest = hashlib.sha256(bmp.to_ppm()).hexdigest()
    svg_digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    boxes = [b.as_tuple() for b in raster_components(bmp)]
    return ppm_digest, svg_digest, boxes


def _cases():
    for ctype, canvas, spec in _base_specs():
        k = CANVAS_CHOICES.index(canvas)
        for variant in VARIANTS:
            yield f"{ctype}-{canvas[0]}x{canvas[1]}-{variant}", spec, k, variant
    for name, spec in _edge_specs():
        for variant in EDGE_VARIANTS:
            yield f"edge-{name}-{variant}", spec, 0, variant


def _params():
    return [pytest.param(*case, id=case[0]) for case in _cases()]


# name -> (sha256 of PPM bytes, sha256 of SVG text, raster_components boxes)
GOLDEN = {
    'bar-800x600-vanilla': (
        '1eb72609122981cdd7fb45c1b062f74a723ec1a0db4793ad1264c24e692c7e8a',
        '78b848c57a2b1dbf9e4edf6b5c995ae0c3b473e9bc8573f74938074539dde7af',
        [],
    ),
    'bar-800x600-cross': (
        '158985f45dbf482d45f585687df3dc9e6d991e4f7c096b9d49c5e59eb174e322',
        '29e161a7e4876d6999a21cdbbbb79a6c65b690f77100394049a12028660eb72e',
        [(591, 550, 600, 559)],
    ),
    'bar-800x600-corner': (
        '1835e73f4d3dd62df71e92412d258e3e80eef417bc9258df0d49f00fa5000bb1',
        'c6fbc5eaaf1225c4f39329c8477b33c097cac3b71aac54daa12ea217c4de1a29',
        [(0, 0, 5, 6), (796, 594, 800, 600)],
    ),
    'bar-800x600-text': (
        'ded2385883b1d54556f641a9acb5ff5ded2bea4ca9a75623479f9edbbd7fc961',
        '1e7b1ec801c3fab018d27009d273c542e282fcb4270bf6c2b863087dd1098a6e',
        [(455, 7, 464, 21)],
    ),
    'bar-800x600-overlay': (
        '296ae6e366947fa30b33eecb19d22177260ee52ecfad0f932e7cafe301072800',
        'c46359cb67c8033aaf88858ff67b18be5af59be37560c512e1259cc20357bc99',
        [],
    ),
    'bar-960x600-vanilla': (
        '1999bbfda2a676c38ca13309ef7e0905d15d64a135cfa979a389b42831642fcb',
        '06a1d87f6bd3f1fb3eee4fda29b3d7025ae19a6e15db1ebbca53b576c32ddf21',
        [],
    ),
    'bar-960x600-cross': (
        'f693bd30b4adabbb3a57f090a82c9c4d26937c0c57656fb3cc486a8edda1a1c8',
        '53a15c490f9d09da2b69a6e5ca2c0118a3a15ebedddcc1ec0c2783fca0d72187',
        [(771, 511, 780, 520)],
    ),
    'bar-960x600-corner': (
        '6080e20a303659017f9788e813671d76ab81e0263ee987de98646b2104a49c13',
        '0b62ba6ce7d300ba7a5475f16ef8f6246d54e0d32dcaa8a985a6096dbab7d2a5',
        [(0, 0, 5, 6), (956, 594, 960, 600)],
    ),
    'bar-960x600-text': (
        '05dc9775ffe4109670a0faafd1d202073c00e8919245db96a84df398fbedcb6a',
        'f8b11cb0baf9731d373a911ab26dc3bd92fe68e0b20ee98cf1cfe184fd3b0c64',
        [(229, 571, 235, 581)],
    ),
    'bar-960x600-overlay': (
        '8ec2d01cfd45a5dd48963df85d3dbaae7e616934c0fa264fa98dff59b6fdc381',
        'e6d5372dd4cbdee2687ad5cc6941bf1f9202268170b863ce01bb65f4b9e158c0',
        [],
    ),
    'bar-1000x640-vanilla': (
        '3d60fea977f0b7411b62a232591ba5b3f30d54ae5a875d160fdb23f4b029268f',
        'cb994a1b781dba5aaec51e6b196df8119d5165cc2dd55d3d855178c898936f58',
        [],
    ),
    'bar-1000x640-cross': (
        '645c775a045c527aa3dacf73ab7fd53a6efc4c678163270ac9dee5b35468c877',
        '9e0b6910c4d2c89f982248a2235ac5c3ad41d66eec1a87ecbc008e322a6b1780',
        [(810, 469, 819, 478)],
    ),
    'bar-1000x640-corner': (
        '669e1d50929ebd1d6e3ddcda8d53be66633703f7c1a4258e46837cac5bf8791d',
        '1b2b1388bc7849ca7d466fab4838e85d29fc6d315b601909df87d74e312a63f7',
        [(0, 0, 5, 6), (996, 634, 1000, 640)],
    ),
    'bar-1000x640-text': (
        'b8ee4c1ecfc396f037895fc6dab36e050662dbcb10555ffe9ef60f8f0b4fba1d',
        '479a1aa0edd2cfa047c7a0a8bf246f8bf75d43af889302368331989d108c6616',
        [(907, 107, 913, 117)],
    ),
    'bar-1000x640-overlay': (
        '3fe9a28ba148ac9c45477aff34c9b7398dea86ea74e9655153af9c92bbbef616',
        '1ce80b6cd967f74c419fe3a6bc6ac1686bc61e6df7c75f2edb91767f548cf882',
        [],
    ),
    'bar-1120x700-vanilla': (
        '87d2089603edb9da80eb0ec4e5211508319030d4897efd5fa843791d80bc0fe1',
        '823567b88071d754cb05a3fce9353fba5445350367f6d9c8ed5b35bc3a8e9cce',
        [],
    ),
    'bar-1120x700-cross': (
        '35cf1117693cf0e6724b1bb73e25883ba34430e92eddc5a9766cdbc288d22f28',
        'f34a27b5a65e33810aca5ee8b06f54dafd210d459559b214aeeefe43a2c2f678',
        [(926, 229, 935, 238)],
    ),
    'bar-1120x700-corner': (
        '8d048737d1ba4aa0a601d54b6e08f09233bb00cbb7ea45c64616a3fc889e559d',
        'a7088dd3c33a0487ccacea54f581cfb223d71022ed5a3a92df8e921207e66afa',
        [(0, 0, 5, 6), (1116, 694, 1120, 700)],
    ),
    'bar-1120x700-text': (
        '0fcf44c77c749ef5ea72799b0d8a3c5da942b8ebb88b5ffb6c443c61c2f9b88d',
        '8d091321492d12a92e37a881848cf107210d7cc2e68ec02bc329737a02d29e02',
        [(635, 7, 644, 21)],
    ),
    'bar-1120x700-overlay': (
        '9b1a8f58b6a6ee432811a4d5e4e9dc92365cab641fa931df33182be1fb02dbe3',
        'd6e5fc26736a4ceaafd5feac126cd674a170172266d4ba4487b6e5aa77e0be66',
        [],
    ),
    'bar-960x720-vanilla': (
        '9e65137413bb75c47c82f2fa0c906e7daf7023ac0930457dfc8684932f1f3fd1',
        '9fc4c2cd955412fa4977bce5cd21f557ccc961b33f0c6b039ec81f95333e7d73',
        [],
    ),
    'bar-960x720-cross': (
        '35a63c24054739dc38aa944447b25706b424c158f48f254f7e024c4b866fcbd7',
        'ddc89b697b2bf49f7e3e8a591acc0360b1df8b53c306725b726e9e30f150735f',
        [(775, 518, 784, 527)],
    ),
    'bar-960x720-corner': (
        'b3db9633fc2aa5032cbf9287f0670e5705fb860b7b488cb7fcd758024af447e3',
        'dd904af77d39ddbcf50b80f0b79215f5fd073609882bb1eca0c7f4129eb6be3e',
        [(0, 0, 5, 6), (956, 714, 960, 720)],
    ),
    'bar-960x720-text': (
        '576bfd7ae23256e92958563b7f650e0947680320cfe47cfa64fb7d827b48ac0a',
        '9598156ae8037aca3d337340c9d9df1f37ca562fe3d7e5d23d93b88b62173275',
        [(548, 691, 554, 701)],
    ),
    'bar-960x720-overlay': (
        'b7c6ea947f78b1fcf898aa408410dc3b5cb25948524b05481c506ea94b96e272',
        '9c61410ba0994195f84697c087b4d594a932fe836bb9540e0b9aa1111c226a76',
        [],
    ),
    'line-800x600-vanilla': (
        '08fcac0576c47c451f909803309cddba08668fd02c36a629b43a5f05a9560b92',
        '07f3397c4211709ccbfc43f964e40ccd57f8db92c1445cb3fb8b9baf0141ecf8',
        [],
    ),
    'line-800x600-cross': (
        '513dfaa7bd580c412db23fdcf40c1da39066aa51a46656c1f06928fb2c13dd61',
        '09195069dd37e47e166af3eba3867707174c84932142af4c9e8ca6408bfcce2a',
        [(690, 53, 699, 62)],
    ),
    'line-800x600-corner': (
        '0d5a60f0cfff4d4abe059296410ca958be2f0f35a89826148b0b3b37adf00ac2',
        'f7fe4a063351d13fbb327497b03631abba66a9d723ec898f409bc1e114bec368',
        [(0, 0, 5, 6), (796, 594, 800, 600)],
    ),
    'line-800x600-text': (
        '2d8f3240a9bed2eb89c85c32377c0a172300c700efdca7b1eb690b8d7a77ca97',
        '86cf8f182ba13d7a4d7c4db1b7bd67e8206eb7abf54a0f9e2d0d5b3f427f2925',
        [(470, 7, 479, 21)],
    ),
    'line-800x600-overlay': (
        '5f0e9cf9b27be04c051bb4bdd08df0aa61bf2f4e8b5df305f7f7241ca1401737',
        '5d881e72e8ad1fe9715acf3eba8911ac6386147c8ca314d0c92c744957d14fcc',
        [],
    ),
    'line-960x600-vanilla': (
        '0cf14150e9aa03bca5d3247cabf677b3b0ebdca7e66d77af199d9f549f12e74c',
        '3d3542bc7251ba099ac3df78391e4c8f879e1fdc89ae64e3e2b10ba07a7fbb4a',
        [],
    ),
    'line-960x600-cross': (
        '10463669f18994c44387bbf0339f58a0f9f95a4ac26221714899dd40888c3640',
        '20ba7a8f7af9cffc240330399f3f9897f560584794a01bb0c867b3a3797f2f41',
        [(735, 178, 744, 187)],
    ),
    'line-960x600-corner': (
        '1204058f25523a11a1952179365641d7fde07d732f035fd1499af5ef4e5a9277',
        '4b5aa49882cec8c89ad87782603603cb205b0943b75269793b094cc56efbcd72',
        [(0, 0, 5, 6), (956, 594, 960, 600)],
    ),
    'line-960x600-text': (
        'a64525a17f63568884e12e10f31912dbee2f0c927b55861becc027868d4858c1',
        '2e757bf949b3a9ab39cc3513fca3461cec4b65b0d372dcbaadd921dec94e73c5',
        [(258, 571, 264, 581)],
    ),
    'line-960x600-overlay': (
        '345b15072c4c3e577a17de3e80c17030ae6bde1f95fa4a219b3197d9e7bb85f8',
        '3be4d66398987bf90888b00d960983487f30b10c2e8f348dbf96d59f2b8b7752',
        [],
    ),
    'line-1000x640-vanilla': (
        '66db409f51619ac6c413c756796ffdab8a021a77d8e68b96bc27692aa2a15835',
        'a02655a6d84d05f65e373ba89edf9987ebebe660d7f2f879dac025f5c108d8e2',
        [],
    ),
    'line-1000x640-cross': (
        'd4cbefc7b92a748b3eb78ead23836bc9826d02168fba888ebd054eacbc3723b5',
        '19317db49d9bdae28c096946563326b330394f47f90649c0d6b793abb0a653aa',
        [(903, 314, 912, 323)],
    ),
    'line-1000x640-corner': (
        '1146d78afa6b525f670451bb9f2874f3a71cb5c2993e2e1f31a65e1875aae943',
        '2366579dfbb33b2b1cfda6ef56545b98b915b4b11d196cdf6bd56c0ff450e3e2',
        [(0, 0, 5, 6), (996, 634, 1000, 640)],
    ),
    'line-1000x640-text': (
        'ce8d0225cad480cee410f332b44dbd407e09eb398e0fcaa8823e181cc5c9a0e4',
        'f315577fda9bfa9ba942d6c70cf7cd3ee6b84f3870d07e95455a1e8264208bc2',
        [(570, 7, 579, 21)],
    ),
    'line-1000x640-overlay': (
        '7abec42453b8bc12febad702b6c58c3e2b233e40ceb5e6f438075fa426c10a0a',
        'da1de8595030dd8ae468142631c2ee690ce3b534e45e467fd8af942dc4e10840',
        [],
    ),
    'line-1120x700-vanilla': (
        '7809605717b684523a040dc82c4c9d16cc6b1c21037998af5b1dc77618f3b124',
        '05730fe8e391822bb7d9d526fa394674bc76b08f106d00138feb61c299f5c22a',
        [],
    ),
    'line-1120x700-cross': (
        '95be0b9a9f6fef26045dff8b50f6b892ac02cfbd2904bc4cfc9a595a789f81a6',
        '9fbfdde5301180f43644a180dde1d6f8a834a8b515468c1b48457bda59bec30a',
        [(900, 558, 909, 567)],
    ),
    'line-1120x700-corner': (
        '25422579271d766e7c91c48e7eb72c1c41a9313e838f89a618320a10c9e90b3c',
        'f6b9d58c675f100955fba43efe91d143b93c173d1ca1c452a3daf2e509f0b905',
        [(0, 0, 5, 6), (1116, 694, 1120, 700)],
    ),
    'line-1120x700-text': (
        '7c0b0fe7fbddd2ac22eba96c0f5e549979bd6d831760fccc8e71e1818aa0367c',
        '8d23430dde249342c0b94196682af598b92ae9d7ec5bb75b6ee493379e64ccf0',
        [(625, 7, 634, 21)],
    ),
    'line-1120x700-overlay': (
        '89ef2fa6ef089863fbb34ca23e24b90b443e4dde28e2cb74f7b377fcfa7e6e38',
        '6dc94f71bc6ff3fb14c92b417e152d1606e64ff04d54e495ca03cd80d85c5765',
        [],
    ),
    'line-960x720-vanilla': (
        '7a3ff502e3d76263335d8ef25be5c4654acc361d5ec797c51db97ab2c1a6ca7c',
        '3a618a88da43fd4078b0ede799d690562919966d14cbc467a9b09d11e5b46622',
        [],
    ),
    'line-960x720-cross': (
        '5927d86967f072bfb39eb69242e7fd4f7224ec351bbeebc34d04ce6383269d51',
        'c3a31a1e2f8683803b5e9e7f6ad56d9e5593d051af5439780354a203e7c72fe5',
        [(722, 307, 731, 316)],
    ),
    'line-960x720-corner': (
        'c896defd0d066a33e116efe613a8a0c5f09b67144ca9a746399ac86b7c7c4336',
        '8b4d2313d618619a6787c59699887903f85f5fe0279797f56fbf962e5a61af8d',
        [(0, 0, 5, 6), (956, 714, 960, 720)],
    ),
    'line-960x720-text': (
        '10f5787816b8fa244294c5a0d7f54785d5e6a27b94779a4b0c841a67c39995e8',
        '2c35f4717bddd5d83905a4bbb1d8c46ef5882fd358a937ede0df038c47f813d3',
        [(733, 691, 739, 701)],
    ),
    'line-960x720-overlay': (
        '8e5011936e143f58716235bbe63523265c004e0ea43acec1e6407cabbfbb0b77',
        '7f3a5ce16d1cef20667e19a911d555f2853f9fa5df3ce94a6b3163bbd40eee83',
        [],
    ),
    'pie-800x600-vanilla': (
        'a2e200cb4950ba59077190d38cfd02cd9d42ed009a18816737b68c8bb0b1d2a4',
        'e93375c70ff457529cc624ed1d9840a655e197de0df415a2e5800a628a837ee6',
        [],
    ),
    'pie-800x600-cross': (
        '3f686a06003e532bdf00a3edad68fd665a07ed90ac95988ccee4e64ab610585c',
        '75dcce633cad77f6b348948d7c6fce9395b751949f5af3e11615f9184c95c9e9',
        [(251, 182, 260, 191)],
    ),
    'pie-800x600-corner': (
        '7ed3e704db263bb15d20e356dc48a27a351119075dc6980b6c38209bfde7d0c6',
        'f95f4be257e90dcf2e1b7f1027ebf89ee929b4efe224a6e2f381e02a4737d157',
        [(0, 0, 5, 6), (796, 594, 800, 600)],
    ),
    'pie-800x600-text': (
        'f3fa6f87c533be6b551d5918cda4885678cdf914acf56aba97511846032693b1',
        '0d4004bbb6b3af772181da112ee0ecf97e2ab9159d54df81f52f6231af5900a1',
        [(693, 41, 699, 51)],
    ),
    'pie-800x600-overlay': (
        '40ad12f56fc28ba4300a39fc4921b80b55508d779fcd77dc3ba84ab92939b47c',
        'c8884ba73046dcd75d8fb9ab8533dd834fdb414fe33cba6e3f1ee608504dc5b1',
        [],
    ),
    'pie-960x600-vanilla': (
        '91791ef25401a00fe50fc987f7fda0867d04422909da13f9e28844e4bf319f09',
        'a06b0e682b78214d2efeecbb6f3d8389a63234b582167ee51d2f30da2385c098',
        [],
    ),
    'pie-960x600-cross': (
        '47c71126dbbd44318b5e8afb809e024fd69e20d2b0076ed8b60189892bc3ad5f',
        '472f221215a9f3e9abc34b7f7c67fd21764cec0aff6645e8e6ada9696b06eaa0',
        [(301, 223, 310, 232)],
    ),
    'pie-960x600-corner': (
        '441527841b6396b276f6dec59cf86d5df1b814fd981c836251f6f68d5679ab8b',
        '608875abe4b3cb1dc293eee304319e6d964f5286ae16ae4a75633ff009b56ea2',
        [(0, 0, 5, 6), (956, 594, 960, 600)],
    ),
    'pie-960x600-text': (
        'afa86a3b1610692f3c9f08c305eba21f2c6dcb158ed8170ac8484cead4a814c6',
        'c9b8c46a6212a1a9e3a67d04acdb22ed9b5f5ac78da12136a594e97da52d9b4c',
        [(874, 63, 880, 73)],
    ),
    'pie-960x600-overlay': (
        'b3324dcd84ee8bd3cb75faee4c2a38f492188474030f26c22946372bfc4e783d',
        '8a3bcaf3219e81660a90a6312396a57a25f6979c74c7a50453f816aac5aac282',
        [],
    ),
    'pie-1000x640-vanilla': (
        '93e4da5aadd1c1c28e2f63def9259d7f3871929bb214f419f729d0bf760cf25d',
        'fa833437ae1f4259de363852c4f490629f745c692573c600d295f144e5817560',
        [],
    ),
    'pie-1000x640-cross': (
        'd20c3af0a44a7681972c029308459be8cb3790df86fc987b7c91be648d74f274',
        'eeba1c8bbbd8608ce5446a178f41add80e4bcdd5f7c12cee865283405b9d9f4b',
        [(317, 229, 326, 238)],
    ),
    'pie-1000x640-corner': (
        'ce77e9f7cd9a04d03978bb3cdf46447e124fab6ce996305421cfc849066f4d21',
        'c777283ecb887053269d44c46e307aa5d9c715994f80a807dc264e185a6ac898',
        [(0, 0, 5, 6), (996, 634, 1000, 640)],
    ),
    'pie-1000x640-text': (
        'd14256f20da871cf3c5cb8915bdefdf5808524997ea5542572fdee74517f571d',
        'd1f3edaad4e921f70b00d7f8cb5ab77efb8eeafe04d1f5b256bae6a3f5e0bd5b',
        [(893, 85, 899, 95)],
    ),
    'pie-1000x640-overlay': (
        '46ba43137a171e02936ed55f99d7052778ffc01b12f7a76528ab67019ce0d825',
        '8dbada474cd256099bec36cdc270790b46991f4b6a83f721257e18de85263451',
        [],
    ),
    'pie-1120x700-vanilla': (
        '8c29bec46eaa693e758b99dda9acc9bcd5f4d7ee34d5a9e9dceefbfb61ce7b60',
        'e8fc52142c2e8703a94a5b3f9f2cc4de4f5e98ddbb67a6ccc5a9ebcb087c8389',
        [],
    ),
    'pie-1120x700-cross': (
        'e37d277894a1da01d452741b0e7e4a5ab841cf1a79541f4eb796bef0f0741808',
        '25925f2aeddcfe654a78da45fa459ef89a4f9f28b36cdb2f26395e2159b441df',
        [(412, 198, 421, 207)],
    ),
    'pie-1120x700-corner': (
        '5a209fb2ab05587aa374fa148bb7f778bdfa97e6b5d87f4323d2fb45c2b1319e',
        '34000ed005a22cfcf9d3df08017d4d532f517ed98be63c31a90d37b342fa8716',
        [(0, 0, 5, 6), (1116, 694, 1120, 700)],
    ),
    'pie-1120x700-text': (
        'fefb926c576f8427e3ee1540b007f7cc10c1417c18faeb077eacf3dcaf89e377',
        'd37f175d0ef03fa43191d6e2f84d7746642a68d517293d3b966771a8655cd161',
        [(1020, 107, 1026, 117)],
    ),
    'pie-1120x700-overlay': (
        '1ca509b17318c1c5c44be2c9777756ab7e4b042ea14bace623f476bc1117cecb',
        'bd2a8ec4327e0fc3044c42384fd5f8ff723f301dfefccb552fd816748cb8b14d',
        [],
    ),
    'pie-960x720-vanilla': (
        '4c35b1b196ce999d319f4cb77b8da1e529c17668c15f08a929b5b14d357058b4',
        'fabe08bcf71f2d0391e3b5cabf8385a7070122767b294ed993cd3a1fdd9166df',
        [],
    ),
    'pie-960x720-cross': (
        '45df815dbc15b28d0465ead2482e39dd3bbc0f395cc2fba475e6f641fa435d26',
        '6370d689e7df4f4d29e2218117e03f679d0e40d75f80c4068a639c1bf5f0b603',
        [(381, 184, 390, 193)],
    ),
    'pie-960x720-corner': (
        'e6bf698dcc6bff8bcf210f25911c01d07e746f59a6b0b402a0ed9b742b608b97',
        '77e07cb530256e574d63308e8b9bec006b335dc990307f29ffb1b2b9576ce557',
        [(0, 0, 5, 6), (956, 714, 960, 720)],
    ),
    'pie-960x720-text': (
        '48565b6cf3d6e4db52b7ac149cec5cbee918772709c16139fe624ba8f39b3b06',
        'd9b290ce6b4c670f54493f794909ed779ea0a9e35b0ce34b08c8e32de94e43cb',
        [(853, 129, 859, 139)],
    ),
    'pie-960x720-overlay': (
        '39d16f956812771e512e0165dfba9c8656ac77be504a79a6946c74ec5aa54534',
        '94eeaeebd6e53ea94cf3574dbc012e8d5d19d1051d4b7d9b81b7b7075b52b3f6',
        [],
    ),
    'edge-bar-untitled-vanilla': (
        '701129e1c392b39c90794a3bf6690fb6087a717db1d596d917a1cfbe7855dcb4',
        '1a598062a642f19b851d90e3e2c7eee05213fa19f1a5c80fb73fc83e3adde340',
        [],
    ),
    'edge-bar-untitled-corner': (
        'a5e59a94dd91ea7a1969c043423b637ba2ad62822c01436094df29dd675587a5',
        'a3e19cbd960b5fb480948f949022f44e532f66e748f30f645ee892fe59812696',
        [(0, 0, 5, 6), (796, 594, 800, 600)],
    ),
    'edge-bar-untitled-full': (
        'c01d307217e173a32d545f5e1db47ebfa151c4335b1ca10ced2e900abab33ced',
        '77723caa250273ccb0426962c6e9e959e094f591b3e1d5d90af44c982e15d497',
        [],
    ),
    'edge-line-escaped-title-vanilla': (
        '23659785ccd992181bf8d612284eb487e9e3c1fbc2b466eb302c1cb7bcb7e80a',
        'b8673a79f0513c0dc893a20bfc1faac7ed971f120a8164814f4c9ee5ee8e8592',
        [],
    ),
    'edge-line-escaped-title-corner': (
        'c93f3a2aa5a7980239005c6deffcf75365f209c9b3046c99588b0c395c96d300',
        'b6b1b46d6093653a00d3a285df23280c6566e758af0a14a20ea0a26412d5f71d',
        [(0, 0, 5, 6), (956, 594, 960, 600)],
    ),
    'edge-line-escaped-title-full': (
        '1cca8a829d7f55697323896191c6e970962ec97f97406c19460a80ab025de9ac',
        '5a2101eceb0db8ce5843688ca44fe4907f1ae811568ab16a3faf733d9abb07be',
        [],
    ),
    'edge-line-one-category-vanilla': (
        'd1dbeb269347ce16ed18791a5e8a8fff6e84cfd08d4f76d0c7c3155e4321a9fb',
        '24a55f19b7e0bf0a41ce26872687e8bf29c49a7afa3204607a2bfc715275e504',
        [],
    ),
    'edge-line-one-category-corner': (
        'af2412397aaa29183aacd2d5b8b0cd2afa77f00f58933c00914f8965f7d16945',
        '0c3cfac91e4f44c3d3e92477b3b7d2e3c4c914daf625407dae8f7f648a0fe349',
        [(0, 0, 5, 6), (996, 634, 1000, 640)],
    ),
    'edge-line-one-category-full': (
        'a6ab6d3d6496dd8d676d4d1a2fbe4195ac798a5d22bd69b5dfd942ba9967bded',
        '63987f90c6ffd8db83f17a047d15bdc1ddc2ed5b61a8c185b12067b7d408be7c',
        [],
    ),
    'edge-bar-zero-vanilla': (
        '95ed6da93d2ebeb6bad841dd73d2d3fcdb49aa5c14b0a1a459e335d723201d61',
        '81778b8be6c9093832de45a655e8365c1199bf0b476bebae072809a94d999672',
        [],
    ),
    'edge-bar-zero-corner': (
        'dd356a52920a80a5ad0c4eb5560ae41f1764af43147cf7e9a7f5757f2270dc67',
        '623b06d71197e4e193dc8f0d6f6cfd6da77b51513ed9a383fe8bf45c339b4901',
        [(0, 0, 5, 6), (1116, 694, 1120, 700)],
    ),
    'edge-bar-zero-full': (
        'c75a772417c28219a710b3dca6fd14bc3b30d3793e95f0943d57f86f7467707f',
        '11093f5cfcc3fb2bd444fddc6561427aac2f35645bbfe74e896a70f88ad6d9c9',
        [],
    ),
    'edge-pie-one-category-vanilla': (
        '520232b0b94de363bd459cea12c0b776129b07f92458e20b6a1cffe121db0700',
        'b48cfdcc511ed3ac1b69ed337e66ccfce04fcb42f82a64fdbeb9dd288dcd6150',
        [],
    ),
    'edge-pie-one-category-corner': (
        '85bafe44850c6522a8424dfbb31b80f1a3e1da215d5abb50c80b59a8d3da719c',
        'd3275ee0796a2b515579c88e000730a967fedef12045a1a5c885d9ec500e4bed',
        [(0, 0, 5, 6), (956, 714, 960, 720)],
    ),
    'edge-pie-one-category-full': (
        '36eb51d91066148bbe303647b07a945d4cb43a1a21380169155fff578b3c9743',
        '7c5a2acc6a4b79b92d80c720d0a0ed8c8c67a7e1f482f597e7e37dc899f37d93',
        [],
    ),
}


@pytest.mark.parametrize("name,spec,k,variant", _params())
def test_golden_render(name, spec, k, variant):
    ppm_digest, svg_digest, boxes = _render_case(spec, k, variant)
    want_ppm, want_svg, want_boxes = GOLDEN[name]
    assert svg_digest == want_svg, f"{name}: SVG text changed"
    assert ppm_digest == want_ppm, f"{name}: PPM bytes changed"
    assert boxes == [tuple(b) for b in want_boxes], f"{name}: marker components changed"


def _overlay_boxes(spec, variant: str) -> list[PixelBBox]:
    """The boxes ``_render_case`` strokes for the ``overlay`` and ``full`` variants."""
    w, h = spec.canvas
    if variant == "full":
        return [PixelBBox(0.0, 0.0, float(w), float(h))]
    target = ElementRef("datapoint", series=spec.series[0].name, category=spec.x_labels[0])
    return [layout(spec)[target], PixelBBox(0.0, 0.0, 60.5, 40.25), PixelBBox(w - 90.25, h - 33.5, float(w), float(h))]


@pytest.mark.parametrize("name,spec,k,variant",
                         [p for p in _params() if p.values[3] in ("overlay", "full")])
def test_overlay_layer_over_vanilla_output(name, spec, k, variant):
    # Overlays are one layer over a finished image: stroking them onto the
    # vanilla output gives the pinned overlay render, byte for byte.
    overlays = _overlay_boxes(spec, variant)
    svg, _ = render_svg(spec)
    bmp, _ = rasterize(spec)
    paint_overlays(bmp, overlays)
    layered_svg = overlay_svg(svg, overlays)
    assert layered_svg == render_svg(spec, overlays=overlays)[0]
    assert bmp.to_ppm() == rasterize(spec, overlays=overlays)[0].to_ppm()
    want_ppm, want_svg, _ = GOLDEN[name]
    assert hashlib.sha256(layered_svg.encode("utf-8")).hexdigest() == want_svg
    assert hashlib.sha256(bmp.to_ppm()).hexdigest() == want_ppm


def _marker_anchors(spec, variant: str) -> list[tuple[float, float]]:
    """The anchors ``_render_case`` draws for the ``cross`` and ``corner`` variants."""
    w, h = spec.canvas
    if variant == "corner":
        return [(0.4, 1.0), (w - 0.5, h - 2.0)]
    target = ElementRef("datapoint", series=spec.series[-1].name, category=spec.x_labels[-1])
    return list(apply_marker(spec, _grounding(target)).markers)


@pytest.mark.parametrize("name,spec,k,variant",
                         [p for p in _params() if p.values[3] in ("cross", "corner")])
def test_marker_layer_over_vanilla_output(name, spec, k, variant):
    # Crosses are one layer over a finished image, as detect paints them:
    # painting them onto the vanilla output gives the pinned cross render.
    anchors = _marker_anchors(spec, variant)
    bmp, _ = rasterize(spec)
    paint_markers(bmp, anchors)
    layered_svg = marker_svg(render_svg(spec)[0], anchors)
    want_ppm, want_svg, want_boxes = GOLDEN[name]
    assert hashlib.sha256(layered_svg.encode("utf-8")).hexdigest() == want_svg
    assert hashlib.sha256(bmp.to_ppm()).hexdigest() == want_ppm
    assert [b.as_tuple() for b in raster_components(bmp)] == [tuple(b) for b in want_boxes]


if __name__ == "__main__":  # re-record: a deliberate, named pixel change only
    print("GOLDEN = {")
    for name, spec, k, variant in _cases():
        ppm_digest, svg_digest, boxes = _render_case(spec, k, variant)
        print(f"    {name!r}: (\n        {ppm_digest!r},\n        {svg_digest!r},\n        {boxes!r},\n    ),")
    print("}")
