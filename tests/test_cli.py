"""End-to-end tests of the command-line interface: subcommand wiring,
manifests, determinism, and exit codes."""

import copy
import gc
import json
import os
import pathlib
import shutil
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from newscap import corpus
from newscap.cli import build_parser, cmd_preprocess, main


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    assert run(["synth", "--out", str(d), "--n", "12", "--seed", "7"]) == 0
    return d


@pytest.fixture(scope="module")
def prep_dir(tmp_path_factory, synth_dir):
    d = tmp_path_factory.mktemp("prep")
    assert run(["preprocess", "--raw", str(synth_dir / "raw.jsonl"),
                "--out", str(d), "--min-freq", "5"]) == 0
    return d


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, synth_dir, prep_dir):
    d = tmp_path_factory.mktemp("train")
    cfg = {
        "batch_size": 4, "base_lr": 1e-3, "warmup": 20, "dropout": 0.0,
        "patience": 100, "max_epochs": 2, "eval_every": 1,
        "model": {"hidden": 16, "heads": 2, "enc_layers": 1, "dec_layers": 1,
                  "k_patches": 9, "feat_dim": 32, "max_pos": 128},
    }
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["train",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--val", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--config", str(cfg_path),
                "--seed", "0", "--out", str(d)]) == 0
    return d


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--out", str(a), "--n", "6", "--seed", "3"]) == 0
    assert run(["synth", "--out", str(b), "--n", "6", "--seed", "3"]) == 0
    assert (a / "raw.jsonl").read_bytes() == (b / "raw.jsonl").read_bytes()


def test_synth_writes_manifest_and_features(synth_dir):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    raw = (synth_dir / "raw.jsonl").read_text().splitlines()
    assert len(raw) == 12
    rec = json.loads(raw[0])
    assert os.path.exists(synth_dir / rec["feature_path"])


def test_synth_captions_pass_filters(synth_dir):
    from newscap import corpus
    for line in (synth_dir / "raw.jsonl").read_text().splitlines():
        d = json.loads(line)
        n = len(d["caption"].split())
        assert corpus.MIN_CAPTION_WORDS <= n <= corpus.MAX_CAPTION_WORDS
        assert min(d["image"]["width"], d["image"]["height"]) >= 180


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_outputs(prep_dir):
    assert (prep_dir / "processed.jsonl").exists()
    assert (prep_dir / "vocab.json").exists()
    report = json.loads((prep_dir / "preprocess_report.json").read_text())
    assert report["kept"] == 12
    assert report["vocab_size"] >= 22


def test_preprocess_rerun_identical_hashes(tmp_path, synth_dir):
    outs = []
    for name in ("p1", "p2"):
        d = tmp_path / name
        assert run(["preprocess", "--raw", str(synth_dir / "raw.jsonl"),
                    "--out", str(d), "--min-freq", "5"]) == 0
        outs.append(d)
    assert (outs[0] / "processed.jsonl").read_bytes() == \
        (outs[1] / "processed.jsonl").read_bytes()
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    assert m0["inputs"] == m1["inputs"]


def test_preprocess_missing_input_exit_2(tmp_path):
    assert run(["preprocess", "--raw", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "o")]) == 2


def test_preprocess_all_filtered_exit_2(tmp_path):
    raw = tmp_path / "raw.jsonl"
    rec = {"id": "x", "article": "words here", "caption": "too short",
           "image": {"width": 500, "height": 500}, "source": "s",
           "feature_path": ""}
    raw.write_text(json.dumps(rec) + "\n")
    assert run(["preprocess", "--raw", str(raw),
                "--out", str(tmp_path / "o")]) == 2


def test_preprocess_none_survive_encoding_exit_2(tmp_path, raw20):
    # five words, none of them ASCII: empty after cleaning
    lines = [dict(r, caption="\u00e9\u00e9 \u00fc\u00fc \u00e4 \u00f6 \u00e7",
                  entities=None) for r in raw20]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in lines))
    out = tmp_path / "o"
    assert run(["preprocess", "--raw", str(raw), "--out", str(out)]) == 2
    assert not (out / "processed.jsonl").exists()


def test_preprocess_encode_error_sample_adds_nothing_to_vocab(tmp_path,
                                                              raw20):
    # overlapping caption mentions: the sample cannot be encoded, so its
    # words must not be counted, and every other id stays where it was
    bad = copy.deepcopy(raw20[0])
    bad["id"] = "bad"
    bad["caption"] = "Zorblax met Zorblax near Zorblax at dawn today"
    bad["entities"]["caption"] = [
        {"text": "Zorblax met", "type": "PERSON", "start": 0, "end": 2},
        {"text": "met", "type": "PERSON", "start": 1, "end": 2}]
    outs = []
    for name, lines in (("with", raw20 + [bad]), ("without", raw20)):
        raw = tmp_path / f"{name}.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in lines))
        outs.append(tmp_path / name)
        assert run(["preprocess", "--raw", str(raw), "--out",
                    str(outs[-1])]) == 0
    report = json.loads((outs[0] / "preprocess_report.json").read_text())
    assert report["rejections"]["encode_error"] == 1
    assert "Zorblax" not in json.loads((outs[0] / "vocab.json").read_text())
    for name in ("vocab.json", "processed.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_preprocess_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path,
                                                                 raw20):
    # preprocess runs with the cyclic collector paused, so what it builds per
    # sample must be freed by reference counting alone: the only cyclic
    # garbage it leaves (the json encoders of its output files) is the same
    # for 20 and 60 samples. A malformed line and a sample that cannot be
    # encoded take its error paths.
    bad = copy.deepcopy(raw20[0])
    bad["entities"]["caption"] = [
        {"text": "x", "type": "PERSON", "start": 0, "end": 2},
        {"text": "x", "type": "PERSON", "start": 1, "end": 2}]
    counts = []
    for copies in (1, 3):
        lines = [dict(r, id=f"{r['id']}-{k}") for k in range(copies)
                 for r in raw20 + [bad]]
        raw = tmp_path / f"raw{copies}.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in lines)
                       + "not json\n")
        out = tmp_path / f"o{copies}"
        args = build_parser().parse_args(
            ["preprocess", "--raw", str(raw), "--out", str(out)])
        gc.collect()
        assert cmd_preprocess(args) == 0
        counts.append(gc.collect())
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["rejections"]["encode_error"] == copies
    assert counts[0] == counts[1]


def test_preprocess_report_counts_rejections(tmp_path):
    raw = tmp_path / "raw.jsonl"
    good = {"id": "g", "article": "Something happened in town today .",
            "caption": "A caption with enough words here .",
            "image": {"width": 300, "height": 300}, "source": "s",
            "feature_path": ""}
    small = dict(good, id="i", image={"width": 179, "height": 300})
    short = dict(good, id="c", caption="too short")
    raw.write_text("".join(json.dumps(r) + "\n" for r in (small, short, good)))
    out = tmp_path / "o"
    assert run(["preprocess", "--raw", str(raw), "--out", str(out),
                "--min-freq", "1"]) == 0
    report = json.loads((out / "preprocess_report.json").read_text())
    assert report["kept"] == 1
    assert report["rejections"] == {"image_size": 1, "caption_length": 1,
                                    "encode_error": 0}


@pytest.fixture(scope="module")
def raw20(tmp_path_factory):
    """The lines of a 20-sample synth corpus, each kept by preprocess."""
    d = tmp_path_factory.mktemp("raw20")
    assert run(["synth", "--out", str(d), "--n", "20", "--seed", "4"]) == 0
    return [json.loads(line) for line in
            (d / "raw.jsonl").read_text().splitlines()]


def _preprocess_with(tmp_path, raw_lines, bad):
    """Preprocess the good lines plus one bad line (a JSON value, or a
    function of a good line's copy); returns the exit code and the report
    (None without one)."""
    line = bad(copy.deepcopy(raw_lines[0])) if callable(bad) else bad
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n"
                           for r in raw_lines + [line]))
    out = tmp_path / "o"
    rc = run(["preprocess", "--raw", str(raw), "--out", str(out)])
    report = out / "preprocess_report.json"
    return rc, json.loads(report.read_text()) if report.exists() else None


def _set(path, value):
    """A function setting the field at path (keys and indices) of a line."""
    def edit(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return edit


def _drop_type(d):
    del d["entities"]["article"][0]["type"]
    return d


@pytest.mark.parametrize("bad", [
    [1, 2],
    _set(("article",), 5),
    _set(("image",), [1, 2]),
    _set(("entities",), [1]),
    _set(("entities", "article"), "x"),
    _drop_type,
    _set(("entities", "article", 0, "start"), "0"),
    _set(("entities", "article", 0, "end"), 1.5),
    _set(("image", "width"), float("inf")),
    _set(("source",), ["wire"]),
], ids=["json-list", "article-int", "image-list", "entities-list",
        "annotations-string", "annotation-without-type", "start-string",
        "end-float", "width-infinite", "source-list"])
def test_preprocess_counts_a_malformed_line(tmp_path, raw20, capsys, bad):
    rc, report = _preprocess_with(tmp_path, raw20, bad)
    assert rc == 0, capsys.readouterr().err
    assert report["malformed_lines"] == 1 and report["kept"] == 20


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

_FIELDS = [(), ("id",), ("article",), ("caption",), ("image",),
           ("image", "width"), ("image", "height"), ("source",),
           ("feature_path",), ("entities",), ("entities", "article"),
           ("entities", "caption"), ("entities", "article", 0),
           ("entities", "article", 0, "text"),
           ("entities", "article", 0, "type"),
           ("entities", "article", 0, "start"),
           ("entities", "article", 0, "end")]


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON)
def test_preprocess_any_json_value_in_a_field_exits_0_or_2(raw20, field,
                                                            value):
    with tempfile.TemporaryDirectory() as tmp:
        bad = _set(field, value) if field else value
        rc, _ = _preprocess_with(pathlib.Path(tmp), raw20, bad)
        assert rc in (0, 2)
        if rc == 0:  # what it wrote loads
            corpus.load_processed(os.path.join(tmp, "o", "processed.jsonl"))


def test_preprocess_tokenizes_each_kept_sample_once(tmp_path, raw20,
                                                    monkeypatch):
    calls = []
    tokenize = corpus.tokenize
    monkeypatch.setattr(corpus, "tokenize",
                        lambda text: calls.append(text) or tokenize(text))
    small = dict(raw20[1], id="small", image={"width": 100, "height": 100})
    rc, report = _preprocess_with(tmp_path, raw20, small)
    assert rc == 0 and report["rejections"]["image_size"] == 1
    # one call for the article and one for the caption of each kept sample
    assert len(calls) == 2 * report["kept"] == 40


# ---------------------------------------------------------------------------
# stats


def test_stats_output(tmp_path, prep_dir):
    d = tmp_path / "stats"
    assert run(["stats", "--processed", str(prep_dir / "processed.jsonl"),
                "--out", str(d)]) == 0
    stats = json.loads((d / "stats.json").read_text())
    assert set(stats) >= {"per_source", "total", "overlap"}
    counts = [g["images"] for g in stats["per_source"].values()]
    assert sum(counts) == stats["total"]["images"] == 12


def test_stats_missing_input_exit_2(tmp_path):
    assert run(["stats", "--processed", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "o")]) == 2


def _without_field(prep_dir, tmp_path, field):
    """The processed set with `field` dropped from its second line."""
    lines = (prep_dir / "processed.jsonl").read_text().splitlines()
    second = json.loads(lines[1])
    del second[field]
    path = tmp_path / "processed.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(second)] + lines[2:])
                    + "\n")
    return path


def test_stats_missing_field_exit_2(tmp_path, prep_dir, capsys):
    processed = _without_field(prep_dir, tmp_path, "source")
    assert run(["stats", "--processed", str(processed),
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'source'" in err


# ---------------------------------------------------------------------------
# train / caption / evaluate


def test_train_outputs(train_dir):
    assert sorted(os.listdir(train_dir)) == [
        "checkpoint.bin", "config.json", "manifest.json", "train_log.jsonl"]
    log = (train_dir / "train_log.jsonl").read_text().splitlines()
    assert len(log) == 2
    manifest = json.loads((train_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["hidden"] == 16
    kept = manifest["checkpoint"]
    val = [json.loads(line)["val_cider"] for line in log]
    assert kept["best_val_cider"] == max(val) == val[kept["epoch"] - 1]


def test_caption_prints_pre_and_post_tc(train_dir, prep_dir, synth_dir,
                                        capsys):
    assert run(["caption",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "pre-TC" in out and "post-TC" in out


def test_evaluate_writes_report(tmp_path, train_dir, prep_dir, synth_dir):
    d = tmp_path / "eval"
    assert run(["evaluate",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--limit", "4", "--out", str(d)]) == 0
    report = json.loads((d / "report.json").read_text())
    assert report["n"] == 4
    assert "pre_tc" in report and report["decode_mode"] == "greedy"


def test_evaluate_beam_mode(tmp_path, train_dir, prep_dir, synth_dir):
    d = tmp_path / "evalb"
    assert run(["evaluate",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--limit", "2", "--decode", "beam", "--beam", "2",
                "--out", str(d)]) == 0
    report = json.loads((d / "report.json").read_text())
    assert report["decode_mode"] == "beam"


def test_beam_below_one_exit_2(tmp_path, train_dir, prep_dir, synth_dir):
    io = ["--processed", str(prep_dir / "processed.jsonl"),
          "--vocab", str(prep_dir / "vocab.json"),
          "--features", str(synth_dir),
          "--checkpoint", str(train_dir / "checkpoint.bin"), "--limit", "1"]
    out = tmp_path / "eval"
    assert run(["evaluate", "--decode", "beam", "--beam", "0",
                "--out", str(out)] + io) == 2
    assert not (out / "report.json").exists()
    assert run(["caption", "--decode", "beam", "--beam", "-1"] + io) == 2


def test_missing_checkpoint_exit_2(tmp_path, prep_dir, synth_dir):
    assert run(["caption",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(tmp_path / "nope.bin")]) == 2


def test_corrupt_checkpoint_exit_2(tmp_path, prep_dir, synth_dir):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint")
    assert run(["caption",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(bad)]) == 2


def test_truncated_checkpoint_exit_2(tmp_path, train_dir, prep_dir,
                                     synth_dir):
    """Cut inside the 12-byte preamble of magic, version and header length."""
    cut = tmp_path / "cut.bin"
    cut.write_bytes((train_dir / "checkpoint.bin").read_bytes()[:9])
    assert run(["caption",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(cut)]) == 2


def _past_the_end(data, n):
    """The checkpoint with a header length past the end of the file."""
    return data[:8] + struct.pack("<I", len(data)) + data[12:]


def _edited(edit):
    def rewrite(data, n):
        header = json.loads(data[12:12 + n])
        edit(header)
        hdr = json.dumps(header).encode()
        return data[:8] + struct.pack("<I", len(hdr)) + hdr + data[12 + n:]
    return rewrite


@pytest.mark.parametrize("rewrite, named", [
    (_edited(lambda h: h.pop("dtype")), "dtype"),
    (_edited(lambda h: h.update(dtype="bogus")), "dtype"),
    (_edited(lambda h: h["config"].update(extra=1)), "extra"),
    (_edited(lambda h: h["adam"].pop("beta1")), "adam"),
    (_edited(lambda h: h["params"][0].pop("shape")), "params"),
    (_past_the_end, "header length"),
], ids=["missing-key", "unknown-dtype", "unknown-config-key", "partial-adam",
        "params-entry-without-shape", "header-past-the-end"])
def test_malformed_checkpoint_header_exit_2(tmp_path, train_dir, prep_dir,
                                            synth_dir, capsys, rewrite, named):
    data = (train_dir / "checkpoint.bin").read_bytes()
    (n,) = struct.unpack("<I", data[8:12])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(rewrite(data, n))
    assert run(["evaluate",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir), "--checkpoint", str(bad),
                "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and named in err


def _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir, processed=None,
                   vocab=None, limit=None):
    """Run `evaluate` with the trained checkpoint on the given inputs."""
    return run(["evaluate",
                "--processed", str(processed or prep_dir / "processed.jsonl"),
                "--vocab", str(vocab or prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--out", str(tmp_path / "eval")]
               + ([] if limit is None else ["--limit", str(limit)]))


def _without(name):
    def edit(params):
        del params[name]
    return edit


def _cut(name, rows):
    def edit(params):
        params[name] = params[name][:rows]
    return edit


def _junk(params):
    params["junk"] = params["out/b"].copy()


@pytest.mark.parametrize("edit, named", [
    (_without("out/b"), "'out/b' is missing"),
    (_cut("ptr/wp", 5), "'ptr/wp' has shape (5, 1)"),
    (_junk, "'junk' is not part of the model"),
], ids=["missing-param", "cut-param", "extra-param"])
def test_checkpoint_params_not_fitting_config_exit_2(
        tmp_path, train_dir, prep_dir, synth_dir, capsys, edit, named):
    from newscap import runtime
    ckpt = runtime.load_checkpoint(str(train_dir / "checkpoint.bin"))
    edit(ckpt.params)
    ckpt.adam = None
    bad = tmp_path / "bad.bin"
    runtime.save_checkpoint(ckpt, str(bad))
    out = tmp_path / "eval"
    assert run(["evaluate",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir), "--checkpoint", str(bad),
                "--limit", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and named in err
    assert not (out / "report.json").exists()


def test_vocab_not_json_exit_2(tmp_path, train_dir, prep_dir, synth_dir):
    vocab = tmp_path / "vocab.json"
    vocab.write_text("[PAD] [UNK]\n")
    assert _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir,
                          vocab=vocab) == 2


@pytest.mark.parametrize("empty_file", [True, False],
                         ids=["empty-file", "limit-keeps-none"])
def test_evaluate_empty_set_exit_2(tmp_path, train_dir, prep_dir, synth_dir,
                                   empty_file):
    processed = prep_dir / "processed.jsonl"
    n = len(processed.read_text().splitlines())
    if empty_file:
        processed = tmp_path / "empty.jsonl"
        processed.write_text("\n")
    assert _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir,
                          processed=processed,
                          limit=None if empty_file else -n) == 2
    assert not (tmp_path / "eval" / "report.json").exists()


def test_evaluate_missing_field_exit_2(tmp_path, train_dir, prep_dir,
                                      synth_dir, capsys):
    processed = _without_field(prep_dir, tmp_path, "caption_ids")
    assert _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir,
                          processed=processed) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'caption_ids'" in err
    assert not (tmp_path / "eval" / "report.json").exists()


def _misfit_prep(prep_dir, tmp_path, case):
    """A copy of the processed corpus whose first sample with article and
    caption mentions no longer fits its text; returns it and that line's
    number."""
    lines = (prep_dir / "processed.jsonl").read_text().splitlines()
    n, d = next((n, d) for n, d in enumerate(map(json.loads, lines))
                if d["entities"] and d["caption_entities"])
    if case == "article-mention":
        d["entities"][0].update(start=9999, end=10000)
    elif case == "negative-start":
        d["entities"][0]["start"] = -1
    elif case == "caption-mention":
        d["caption_entities"][0].update(start=len(d["caption_tokens"]),
                                        end=len(d["caption_tokens"]) + 1)
    else:
        d["article_ids"] = d["article_ids"][:-1]
    lines[n] = json.dumps(d)
    prep = tmp_path / "prep"
    prep.mkdir()
    shutil.copy(prep_dir / "vocab.json", prep)
    (prep / "processed.jsonl").write_text("\n".join(lines) + "\n")
    return prep, n + 1


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("case, named", [
    ("article-mention", "article mention"),
    ("caption-mention", "caption mention"),
    ("ids-length", "article ids for"),
    ("negative-start", "invalid span"),
])
def test_processed_sample_not_fitting_its_text_exit_2(
        tmp_path, train_dir, prep_dir, synth_dir, capsys, command, case,
        named):
    prep, line = _misfit_prep(prep_dir, tmp_path, case)
    if command == "train":
        rc, _ = _train_with(tmp_path, prep, synth_dir)
    else:
        rc = _evaluate_with(tmp_path, train_dir, prep, synth_dir)
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"line {line}" in err and named in err


def test_vocab_ids_times_ten_exit_2(tmp_path, train_dir, prep_dir, synth_dir,
                                   capsys):
    ids = json.loads((prep_dir / "vocab.json").read_text())
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({t: 10 * i for t, i in ids.items()}))
    assert _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir,
                          vocab=vocab) == 2
    assert "vocabulary ids must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "caption", "train"])
@pytest.mark.parametrize("limit", [0, -2])
def test_limit_below_one_exit_2(tmp_path, train_dir, prep_dir, synth_dir,
                                capsys, command, limit):
    io = ["--processed", str(prep_dir / "processed.jsonl"),
          "--vocab", str(prep_dir / "vocab.json"),
          "--features", str(synth_dir), "--limit", str(limit),
          "--out", str(tmp_path / "o")]
    extra = {"train": ["--val", str(prep_dir / "processed.jsonl")]}.get(
        command, ["--checkpoint", str(train_dir / "checkpoint.bin")])
    assert run([command] + io + extra) == 2
    assert "--limit must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


@pytest.mark.parametrize("field,bad", [("article_ids", -1),
                                       ("caption_ids", 10 ** 6)],
                         ids=["negative-article-id", "caption-id-past-vocab"])
def test_token_id_outside_vocab_exit_2(tmp_path, train_dir, prep_dir,
                                       synth_dir, capsys, field, bad):
    lines = (prep_dir / "processed.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first[field][1] = bad
    processed = tmp_path / "processed.jsonl"
    processed.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    assert _evaluate_with(tmp_path, train_dir, prep_dir, synth_dir,
                          processed=processed) == 2
    assert "outside the vocabulary" in capsys.readouterr().err
    (tmp_path / "vocab.json").write_bytes(
        (prep_dir / "vocab.json").read_bytes())
    rc, out = _train_with(tmp_path, tmp_path, synth_dir)
    assert rc == 2
    assert not (out / "checkpoint.bin").exists()


def _train_with(tmp_path, prep, synth, max_pos=128, **train):
    cfg = dict({"batch_size": 4, "dropout": 0.0, "max_epochs": 1}, **train,
               model={"hidden": 8, "heads": 2, "enc_layers": 1,
                      "dec_layers": 1, "k_patches": 9, "feat_dim": 32,
                      "max_pos": max_pos})
    return _train_config(tmp_path, prep, synth, cfg)


def _train_config(tmp_path, prep, synth, cfg):
    """Run `train` with `cfg` written as its JSON config file."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t"
    rc = run(["train",
              "--processed", str(prep / "processed.jsonl"),
              "--val", str(prep / "processed.jsonl"),
              "--vocab", str(prep / "vocab.json"),
              "--features", str(synth),
              "--config", str(cfg_path),
              "--out", str(out)])
    return rc, out


def test_train_zero_epochs_exit_0(tmp_path, prep_dir, synth_dir, capsys):
    rc, out = _train_with(tmp_path, prep_dir, synth_dir, max_epochs=0)
    assert rc == 0
    assert (out / "checkpoint.bin").exists()
    assert "no validation ran" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checkpoint"] == {"epoch": 0, "best_val_cider": None}


@pytest.mark.parametrize("cfg", [
    {"max_epochs": 1, "no_such_field": 1},
    [1, 2],
    {"max_epochs": 1, "model": {"hidden": 15, "heads": 2, "k_patches": 9,
                                "feat_dim": 32, "max_pos": 128}},
    {"max_epochs": 1, "model": {"hidden": 8, "heads": 2, "dec_layers": 0,
                                "k_patches": 9, "feat_dim": 32,
                                "max_pos": 128}},
    {"max_epochs": 1, "model": {"hidden": 8, "heads": 2, "dropout": 0.0,
                                "k_patches": 9, "feat_dim": 32,
                                "max_pos": 128}},
], ids=["unknown-key", "not-an-object", "heads-not-dividing-hidden",
        "no-decoder-layer", "model-dropout"])
def test_train_bad_config_exit_2(tmp_path, prep_dir, synth_dir, capsys, cfg):
    rc, out = _train_config(tmp_path, prep_dir, synth_dir, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    if isinstance(cfg, dict) and "dropout" in cfg.get("model", {}):
        assert 'top-level "dropout"' in err
    assert not (out / "checkpoint.bin").exists()


BAD_VALUES = [("batch_size", 0), ("batch_size", "4"), ("max_epochs", 1.5),
              ("eval_every", 0), ("dropout", 1.0), ("warmup", 0),
              ("max_decode_len", 0), ("model.heads", 0),
              ("model.enc_layers", -1), ("model.hidden", "16")]


@pytest.mark.parametrize("field, value", BAD_VALUES,
                         ids=[f"{f}={v!r}" for f, v in BAD_VALUES])
def test_train_bad_config_value_exit_2(tmp_path, prep_dir, synth_dir, capsys,
                                       field, value):
    """Each value is checked before any work, and the error names it."""
    cfg = {"max_epochs": 1, "model": {"hidden": 8, "heads": 2, "k_patches": 9,
                                      "feat_dim": 32, "max_pos": 128}}
    section, _, name = field.rpartition(".")
    (cfg["model"] if section else cfg)[name] = value
    rc, out = _train_config(tmp_path, prep_dir, synth_dir, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and name in err
    assert not (out / "train_log.jsonl").exists()


def test_train_diverged_exit_3(tmp_path, prep_dir, synth_dir, capsys):
    rc, out = _train_with(tmp_path, prep_dir, synth_dir, base_lr=1e6,
                          warmup=1)
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_train_poisoned_sample_in_a_micro_batch_exit_3(
        tmp_path, prep_dir, synth_dir, capsys, monkeypatch):
    """A non-finite grid makes only its own sample's loss non-finite; the
    error names that sample, though it shares a micro-batch with others."""
    import numpy as np
    from newscap import runtime
    from newscap.corpus import Vocabulary, load_processed
    from newscap.features import FeatureStore
    from newscap.model import ModelConfig
    samples = load_processed(str(prep_dir / "processed.jsonl"))
    vocab = Vocabulary.load(str(prep_dir / "vocab.json"))
    # the second sample of the first batch (batch_size 4), by train()'s
    # first rng draw; it runs behind another in its micro-batch
    order = np.random.default_rng(0).permutation(len(samples))
    batch = [samples[i] for i in order[:4]]
    target = batch[1]
    runs = runtime.micro_batches(batch, ModelConfig(
        vocab_size=len(vocab), hidden=8, heads=2))
    assert any(run.index(target) > 0 for run in runs if target in run)
    get = FeatureStore.get

    def poisoned(self, ref):
        grid = get(self, ref)
        return np.full_like(grid, np.nan) if ref == target.feature_ref \
            else grid

    monkeypatch.setattr(FeatureStore, "get", poisoned)
    rc, out = _train_with(tmp_path, prep_dir, synth_dir)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert f"sample {target.id}" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("poison, code", [("nan", 3), ("unreadable", 2)])
def test_train_failing_after_a_validated_epoch_leaves_no_checkpoint(
        tmp_path, prep_dir, synth_dir, capsys, monkeypatch, poison, code):
    """Training writes each best checkpoint to a staging file when
    validation finds it; a run that fails after that leaves no
    checkpoint.bin, staging file or temp file."""
    import numpy as np
    from newscap.features import FeatureError, FeatureStore
    staged = tmp_path / "t" / "checkpoint.bin.staged"
    get = FeatureStore.get
    poisoned_refs = []

    def poisoned(self, ref):
        grid = get(self, ref)
        if not staged.exists():
            return grid
        poisoned_refs.append(ref)
        if poison == "nan":
            return np.full_like(grid, np.nan)
        raise FeatureError(f"cannot read feature file {ref}")

    monkeypatch.setattr(FeatureStore, "get", poisoned)
    rc, out = _train_with(tmp_path, prep_dir, synth_dir, max_epochs=3)
    assert rc == code
    assert "internal error" not in capsys.readouterr().err
    assert poisoned_refs
    log = [json.loads(line)
           for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 1 and log[0]["val_cider"] is not None
    assert sorted(os.listdir(out)) == ["train_log.jsonl"]


def test_train_max_pos_below_article_exit_2(tmp_path):
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert run(["synth", "--out", str(raw), "--n", "8", "--seed", "0"]) == 0
    assert run(["preprocess", "--raw", str(raw / "raw.jsonl"),
                "--out", str(prep)]) == 0
    rc, out = _train_with(tmp_path, prep, raw, max_pos=64)
    assert rc == 2
    assert not (out / "checkpoint.bin").exists()


def test_evaluate_max_pos_below_article_exit_2(tmp_path):
    from newscap import runtime
    from newscap.corpus import Vocabulary
    from newscap.model import CaptionModel, ModelConfig
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert run(["synth", "--out", str(raw), "--n", "8", "--seed", "0"]) == 0
    assert run(["preprocess", "--raw", str(raw / "raw.jsonl"),
                "--out", str(prep)]) == 0
    vocab = Vocabulary.load(str(prep / "vocab.json"))
    cfg = ModelConfig(vocab_size=len(vocab), hidden=8, heads=2, enc_layers=1,
                      dec_layers=1, k_patches=9, feat_dim=32, max_pos=64)
    ckpt = str(tmp_path / "m.bin")
    runtime.save_checkpoint(
        runtime.checkpoint_from_model(CaptionModel(cfg, vocab)), ckpt)
    out = tmp_path / "eval"
    assert run(["evaluate",
                "--processed", str(prep / "processed.jsonl"),
                "--vocab", str(prep / "vocab.json"),
                "--features", str(raw),
                "--checkpoint", ckpt, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def _feature_case(tmp_path, prep_dir, synth_dir, command, feat_dim=32):
    """Run `command` on the processed set against the features in
    synth_dir, with a model of width feat_dim (a config for train, a
    checkpoint for evaluate and caption)."""
    from newscap import runtime
    from newscap.corpus import Vocabulary
    from newscap.model import CaptionModel, ModelConfig
    out = tmp_path / "o"
    io = ["--processed", str(prep_dir / "processed.jsonl"),
          "--vocab", str(prep_dir / "vocab.json"),
          "--features", str(synth_dir), "--out", str(out)]
    model = {"hidden": 8, "heads": 2, "enc_layers": 1, "dec_layers": 1,
             "k_patches": 9, "feat_dim": feat_dim, "max_pos": 128}
    if command == "train":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"max_epochs": 1, "model": model}))
        extra = ["--val", str(prep_dir / "processed.jsonl"),
                 "--config", str(cfg)]
    else:
        vocab = Vocabulary.load(str(prep_dir / "vocab.json"))
        ckpt = str(tmp_path / "m.bin")
        runtime.save_checkpoint(runtime.checkpoint_from_model(CaptionModel(
            ModelConfig(vocab_size=len(vocab), **model), vocab)), ckpt)
        extra = ["--checkpoint", ckpt]
    return run([command] + io + extra), out


@pytest.mark.parametrize("command", ["train", "evaluate", "caption"])
def test_feat_dim_not_matching_features_exit_2(tmp_path, prep_dir, synth_dir,
                                               capsys, command):
    rc, out = _feature_case(tmp_path, prep_dir, synth_dir, command,
                            feat_dim=16)
    assert rc == 2
    err = capsys.readouterr().err
    assert "32-wide features" in err and "feat_dim is 16" in err
    assert not (out / "train_log.jsonl").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "caption"])
def test_missing_feature_sidecar_exit_2(tmp_path, prep_dir, synth_dir, capsys,
                                        command):
    features = tmp_path / "features"
    shutil.copytree(synth_dir, features)
    lines = (prep_dir / "processed.jsonl").read_text().splitlines()
    ref = json.loads(lines[0])["feature_ref"]
    os.remove(features / (ref + ".json"))
    rc, out = _feature_case(tmp_path, prep_dir, features, command)
    assert rc == 2
    assert "cannot read the sidecar" in capsys.readouterr().err
    assert not (out / "train_log.jsonl").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("field, value, named", [
    ("k", 7, "needs 896"),
    ("k", "9", "'9'"),
    ("k", -1, "k -1"),
    ("d", 0, "d 0"),
    ("d", True, "d True"),
], ids=["k-too-small", "k-string", "k-negative", "d-zero", "d-bool"])
def test_feature_sidecar_sizes_checked_exit_2(tmp_path, train_dir, prep_dir,
                                              synth_dir, capsys, field, value,
                                              named):
    features = tmp_path / "features"
    shutil.copytree(synth_dir, features)
    lines = (prep_dir / "processed.jsonl").read_text().splitlines()
    sidecar = features / (json.loads(lines[0])["feature_ref"] + ".json")
    sidecar.write_text(json.dumps(
        dict(json.loads(sidecar.read_text()), **{field: value})))
    assert _evaluate_with(tmp_path, train_dir, prep_dir, features,
                          limit=1) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and named in err
    assert not (tmp_path / "eval" / "report.json").exists()


def test_bad_config_file_exit_2(tmp_path, prep_dir, synth_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken json")
    assert run(["train",
                "--processed", str(prep_dir / "processed.jsonl"),
                "--val", str(prep_dir / "processed.jsonl"),
                "--vocab", str(prep_dir / "vocab.json"),
                "--features", str(synth_dir),
                "--config", str(cfg),
                "--out", str(tmp_path / "t")]) == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_exit_zero_and_reports_groups(capsys):
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    for group in ("embeddings", "position_lstm", "pointer_gates",
                  "visual_selective", "multimodal_aoa"):
        assert group in out


def test_gradcheck_impossible_tolerance_exit_3():
    assert run(["gradcheck", "--tol", "1e-18"]) == 3
