"""Command-line contract: artifacts, determinism, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sga.cli import main
from sga.conllu import read_conllu
from sga.pipeline import Model
from sga.serialize import load_parameters
from sga.syntax_graph import build_syntax_graph, graph_to_dot, graph_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FLIGHT = str(FIXTURES / "flight.conllu")
DOGS = str(FIXTURES / "dogs.conllu")
MINIMAL = str(FIXTURES / "minimal.conllu")
CORPUS = str(FIXTURES / "toy_corpus.conllu")

TOY = ["--toy", "--seed", "3"]


def read_tree(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).rglob("*")) if p.is_file()
    }


class TestGraphCommand:
    def test_writes_dot_and_json(self, tmp_path):
        out = tmp_path / "graphs"
        assert main(["graph", DOGS, "--out-dir", str(out)]) == 0
        dot = (out / "dogs_s0000.dot").read_text()
        assert dot.count("style=solid") == 2
        assert dot.count("style=dashed") == 2
        payload = json.loads((out / "dogs_s0000.json").read_text())
        n = payload["n"]
        assert len(payload["edges"]) == 2 * (n - 1) + n
        assert sum(1 for e in payload["edges"] if e["direction"] == "self") == n

    def test_flight_edge_counts(self, tmp_path):
        out = tmp_path / "graphs"
        assert main(["graph", FLIGHT, "--format", "json", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "flight_s0000.json").read_text())
        assert len(payload["edges"]) == 22
        assert sum(1 for e in payload["edges"] if e["direction"] == "self") == 8

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["graph", str(tmp_path / "nope.conllu")]) == 2
        assert "nope.conllu" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("1\tonly\tfour\tcolumns\n")
        assert main(["graph", str(bad)]) == 2
        assert "columns" in capsys.readouterr().err


class TestPathsCommand:
    def test_tsv_to_stdout(self, capsys):
        assert main(["paths", MINIMAL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == [
            "sentence", "from", "to", "from_form", "to_form", "path",
        ]
        assert "0\t1\t2\tDogs\tbark\tnsubj:rev" in lines
        assert len(lines) == 1 + 4  # header + 2x2 ordered pairs


class TestSubtypedLabels:
    def test_subtype_colon_stays_in_the_base(self, tmp_path, capsys):
        """UD subtypes such as ``nmod:poss`` keep their colon in the base label;
        only the last colon separates the direction."""
        poss = tmp_path / "poss.conllu"
        poss.write_text(
            "1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
            "2\tdog\t_\t_\t_\t_\t4\tnmod:poss\t_\t_\n"
            "3\towner\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "4\tbarked\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
        )
        tree = read_conllu(poss.read_text())[0]
        graph = build_syntax_graph(tree)
        edges = json.loads(graph_to_json(graph, tree))["edges"]
        assert [e for e in edges if e["label"] == "nmod:poss"] == [
            {"from": 4, "to": 2, "label": "nmod:poss", "direction": "fwd"},
            {"from": 2, "to": 4, "label": "nmod:poss", "direction": "rev"},
        ]
        dot = graph_to_dot(graph, tree)
        assert '  n4 -> n2 [label="nmod:poss", style=solid];' in dot
        assert '  n2 -> n4 [label="nmod:poss", style=dashed];' in dot
        assert main(["paths", str(poss)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0\t4\t2\tbarked\tdog\tnmod:poss:fwd" in lines
        assert "0\t2\t4\tdog\tbarked\tnmod:poss:rev" in lines
        assert "0\t1\t3\tthe\towner\tdet:rev nmod:poss:rev nsubj:rev" in lines


class TestEncodeCommand:
    def test_needs_param_source(self, capsys):
        assert main(["encode", DOGS]) == 2
        assert "--random-init" in capsys.readouterr().err

    def test_params_and_random_init_are_exclusive(self, tmp_path, capsys):
        """A loaded file would replace the fresh draw, so the two parameter
        sources are a usage error together."""
        from sga.config import PipelineConfig
        from sga.serialize import save_parameters

        model = Model.create(PipelineConfig.toy(seed=3), read_conllu(Path(DOGS).read_text()))
        params = tmp_path / "toy.sga"
        save_parameters(params, model.parameters())
        out = tmp_path / "enc"
        argv = ["encode", DOGS, "--params", str(params), "--random-init", *TOY,
                "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not allowed with argument" in err
        assert not out.exists()

    def test_attention_csv_count_at_defaults(self, tmp_path):
        out = tmp_path / "enc"
        code = main(
            ["encode", FLIGHT, "--random-init", "--seed", "1", "--out-dir", str(out)]
        )
        assert code == 0
        assert len(list(out.glob("attn_*.csv"))) == 6 * 4
        assert (out / "embeddings.sga").exists()

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for directory in (a, b):
            assert (
                main(["encode", DOGS, "--random-init", *TOY, "--out-dir", str(directory)])
                == 0
            )
        assert read_tree(a) == read_tree(b)

    def test_separate_processes_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for directory in (a, b):
            proc = subprocess.run(
                [sys.executable, "-m", "sga.cli", "encode", DOGS, "--random-init",
                 *TOY, "--out-dir", str(directory)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert read_tree(a) == read_tree(b)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A flight file saved with a UTF-8 BOM encodes to the same bytes as
        the plain file."""
        bom = tmp_path / "bom" / "flight.conllu"
        bom.parent.mkdir()
        bom.write_bytes(b"\xef\xbb\xbf" + Path(FLIGHT).read_bytes())
        a, b = tmp_path / "a", tmp_path / "b"
        for source, directory in ((FLIGHT, a), (str(bom), b)):
            assert main(["encode", source, "--random-init", *TOY, "--dump-scores",
                         "--out-dir", str(directory)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_zero_relations_equals_baseline_bytes(self, tmp_path):
        zero, base = tmp_path / "zero", tmp_path / "base"
        assert main(
            ["encode", DOGS, "--random-init", *TOY, "--zero-relations",
             "--out-dir", str(zero)]
        ) == 0
        assert main(
            ["encode", DOGS, "--random-init", *TOY, "--baseline",
             "--out-dir", str(base)]
        ) == 0
        assert read_tree(zero) == read_tree(base)

    def test_baseline_and_zero_relations_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "enc"
        assert main(
            ["encode", DOGS, "--random-init", *TOY, "--baseline", "--zero-relations",
             "--out-dir", str(out)]
        ) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_scores_dumped_on_request(self, tmp_path):
        out = tmp_path / "enc"
        assert main(
            ["encode", DOGS, "--random-init", *TOY, "--dump-scores",
             "--out-dir", str(out)]
        ) == 0
        assert len(list(out.glob("scores_*.csv"))) == len(list(out.glob("attn_*.csv")))

    def test_relations_json_written(self, tmp_path):
        out = tmp_path / "enc"
        assert main(
            ["encode", MINIMAL, "--random-init", *TOY, "--out-dir", str(out)]
        ) == 0
        payload = json.loads((out / "relations_s0000.json").read_text())
        assert payload["n"] == len("Dogsbark")
        assert ["self"] in payload["paths"]
        table = np.asarray(payload["pair_index"])
        assert table.shape == (payload["n"], payload["n"])

    def test_relations_encoded_once_per_sentence(self, tmp_path, monkeypatch):
        calls = []
        encode = Model.encode_relations

        def counted(model, sentence):
            calls.append(sentence.char_map.chars)
            return encode(model, sentence)

        monkeypatch.setattr(Model, "encode_relations", counted)
        out = tmp_path / "enc"
        assert main(["encode", CORPUS, "--random-init", *TOY, "--out-dir", str(out)]) == 0
        dumps = list(out.glob("relations_*.json"))
        assert len(dumps) == 10
        assert len(calls) == len(set(calls)) == len(dumps)

    def test_embeddings_have_expected_shape(self, tmp_path):
        out = tmp_path / "enc"
        assert main(
            ["encode", MINIMAL, "--random-init", *TOY, "--out-dir", str(out)]
        ) == 0
        loaded = load_parameters(out / "embeddings.sga")
        assert loaded["sentence0000"].shape == (8, 16)

    def test_param_roundtrip_requires_matching_config(self, tmp_path, capsys):
        # Parameters drawn at toy dimensions cannot back a default-size model.
        from sga.config import PipelineConfig
        from sga.conllu import read_conllu
        from sga.pipeline import Model
        from sga.serialize import save_parameters

        trees = read_conllu(Path(DOGS).read_text())
        model = Model.create(PipelineConfig.toy(seed=3), trees)
        params_file = tmp_path / "toy.sga"
        save_parameters(params_file, model.parameters())

        out = tmp_path / "enc"
        code = main(
            ["encode", DOGS, "--params", str(params_file), "--out-dir", str(out)]
        )
        assert code == 2
        assert "match" in capsys.readouterr().err

        assert main(
            ["encode", DOGS, "--params", str(params_file), "--toy",
             "--out-dir", str(out)]
        ) == 0

    def test_per_head_parameter_file_is_rejected(self, tmp_path, capsys):
        """A parameter set saved with one parameter per head and per GRU
        gate, as before the weights were stacked, does not load: exit 2
        with a message that names the file."""
        from sga.autodiff import Parameter
        from sga.config import PipelineConfig
        from sga.serialize import save_parameters

        model = Model.create(PipelineConfig.toy(seed=3), read_conllu(Path(DOGS).read_text()))
        rel, stack = model.relation, model.stack
        old = {"rel.edge_embedding": rel.edge_embedding.data,
               "enc.char_embedding": stack.char_embedding.data}
        for side, cell in (("fwd", rel.gru_fwd), ("bwd", rel.gru_bwd)):
            for name in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"):
                old[f"rel.gru_{side}.{name}"] = getattr(cell, name).data
        for b, block in enumerate(stack.blocks):
            for h, head in enumerate(block.heads):
                for name in ("w_q", "w_k", "w_v", "w_r"):
                    old[f"enc.block{b}.head{h}.{name}"] = getattr(head, name).data
            old.update((p.name, p.data) for p in block.parameters()[2:])
        params_file = tmp_path / "per_head.sga"
        save_parameters(params_file, [Parameter(k, v) for k, v in old.items()])
        code = main(["encode", DOGS, "--params", str(params_file), *TOY,
                     "--out-dir", str(tmp_path / "enc")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(params_file) in err and "'enc.block0.head0.w_q'" in err

    @pytest.mark.parametrize(
        "token_id, head, deprel",
        [("2", "--0", "dep"), ("2", "\u00b2", "dep"), ("\u00b9", "1", "dep"), ("2", "1", "self")],
        ids=["head-double-minus", "head-superscript", "id-superscript", "deprel-self"],
    )
    def test_malformed_token_line_names_its_line(self, tmp_path, capsys, token_id, head, deprel):
        bad = tmp_path / "bad.conllu"
        bad.write_text(
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            f"{token_id}\tb\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_\n",
            encoding="utf-8",
        )
        code = main(["encode", str(bad), "--random-init", "--toy", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2:" in err
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        assert main(["verify", "algebra"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = {c["name"] for s in report["suites"] for c in s["checks"]}
        assert "four_term_identity" in names

    def test_graph_suite_passes(self, capsys):
        assert main(["verify", "graph"]) == 0
        report = json.loads(capsys.readouterr().out)
        (suite,) = report["suites"]
        assert suite["suite"] == "graph"
        assert all(c["measured"] <= c["tolerance"] for c in suite["checks"])

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "bogus"]) == 2

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "dedup", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_report_depends_only_on_suite_and_seed(self, tmp_path):
        """Two runs write the same bytes: the report holds no timing."""
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["verify", "algebra", "--out", str(first)]) == 0
        assert main(["verify", "algebra", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from sga.verify import SUITES, CheckResult, SuiteResult

        def broken(seed):
            result = SuiteResult(suite="algebra")
            result.checks.append(
                CheckResult("forced", measured=1.0, tolerance=0.0)
            )
            return result

        monkeypatch.setitem(SUITES, "algebra", broken)
        assert main(["verify", "algebra"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestToytrainCommand:
    def test_zero_epochs_writes_initial_loss_only(self, tmp_path):
        out = tmp_path / "loss.csv"
        code = main(
            ["toytrain", CORPUS, "--epochs", "0", *TOY, "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_same_seed_gives_identical_curves(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (first, second):
            assert main(
                ["toytrain", CORPUS, "--epochs", "2", *TOY, "--out", str(out)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.conllu"
        empty.write_text("# nothing here\n")
        assert main(["toytrain", str(empty), "--epochs", "1"]) == 2

    def test_oversized_corpus_exits_2(self, tmp_path, capsys):
        blob = []
        for _ in range(101):
            blob.append("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n")
        big = tmp_path / "big.conllu"
        big.write_text("\n".join(blob))
        assert main(["toytrain", str(big), "--epochs", "1"]) == 2
        assert "100" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--warmup", "-5", "warmup_steps"),
        ("--warmup", "0", "warmup_steps"),
        ("--lr", "nan", "lr"),
        ("--lr", "-1", "lr"),
    ])
    def test_bad_rate_or_warmup_exits_2(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "loss.csv"
        argv = ["toytrain", CORPUS, "--epochs", "1", *TOY, flag, value, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{name} must be" in err and "Traceback" not in err
        assert not out.exists()

    def test_lr_and_warmup_are_exclusive(self, tmp_path, capsys):
        """The schedule sets every step's size, so a rate given with it
        would be ignored; the two flags are a usage error together."""
        out = tmp_path / "loss.csv"
        argv = ["toytrain", CORPUS, "--epochs", "1", *TOY, "--warmup", "10", "--lr", "0.5",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not allowed with argument" in err
        assert not out.exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# toy run\n"
            "d_model=12\nd_e=6\nd_h=6\nn_blocks=1\nheads=2\nd_ff=24\n"
            "use_positions=false\n"
        )
        out = tmp_path / "enc"
        code = main(
            ["encode", MINIMAL, "--random-init", "--seed", "0",
             "--config", str(cfg), "--heads", "3", "--out-dir", str(out)]
        )
        assert code == 0
        # 1 block x 3 heads worth of attention maps
        assert len(list(out.glob("attn_*.csv"))) == 3

    def test_config_seed_used_when_no_flag_or_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGA_SEED", raising=False)
        dims = "d_model=12\nd_e=6\nd_h=6\nn_blocks=1\nheads=2\nd_ff=24\n"
        seeded, plain = tmp_path / "seeded.cfg", tmp_path / "plain.cfg"
        seeded.write_text(dims + "seed=5\n")
        plain.write_text(dims)
        runs = {"file": ["--config", str(seeded)],
                "flag": ["--config", str(plain), "--seed", "5"],
                "default": ["--config", str(plain)]}
        out = {}
        for name, flags in runs.items():
            assert main(["encode", MINIMAL, "--random-init", *flags,
                         "--out-dir", str(tmp_path / name)]) == 0
            out[name] = (tmp_path / name / "embeddings.sga").read_bytes()
        assert out["file"] == out["flag"] != out["default"]
        monkeypatch.setenv("SGA_SEED", "0")
        assert main(["encode", MINIMAL, "--random-init", "--config", str(seeded),
                     "--out-dir", str(tmp_path / "env")]) == 0
        assert (tmp_path / "env" / "embeddings.sga").read_bytes() == out["default"]

    def test_flag_repairs_config_before_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_model=12\nd_e=6\nd_h=6\nn_blocks=1\nheads=5\nd_ff=24\n")
        out = tmp_path / "enc"
        assert main(["encode", MINIMAL, "--random-init", "--config", str(cfg),
                     "--heads", "3", "--out-dir", str(out)]) == 0
        assert len(list(out.glob("attn_*.csv"))) == 3
        assert main(["encode", MINIMAL, "--random-init", "--config", str(cfg),
                     "--out-dir", str(out)]) == 2
        assert f"{cfg}: d_model (12) must be divisible by heads (5)" in capsys.readouterr().err
        cfg.write_text("d_model=12\nheads=0\n")
        assert main(["encode", MINIMAL, "--random-init", "--config", str(cfg),
                     "--heads", "3", "--out-dir", str(out)]) == 2
        assert f"{cfg}:2: heads must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["encode", MINIMAL, "--random-init"], ["toytrain", MINIMAL, "--epochs", "0"],
    ], ids=["encode", "toytrain"])
    def test_toy_and_config_are_exclusive(self, tmp_path, capsys, monkeypatch, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_model=12\nheads=2\n")
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--toy", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not allowed with argument" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        assert main(
            ["encode", MINIMAL, "--random-init", "--config", str(cfg)]
        ) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_duplicate_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_model=16\nd_model=32\n")
        assert main(["encode", MINIMAL, "--random-init", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: duplicate config key 'd_model'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["encode", "--random-init", "--out-dir"], ["toytrain", "--epochs", "0", "--out"],
    ], ids=["encode", "toytrain"])
    def test_overlong_sentence_names_file_and_sentence(self, tmp_path, capsys, command):
        """The second sentence renders to 90 * 5 + 89 = 539 characters."""
        words = [f"{i}\tabcde\t_\t_\t_\t_\t{i - 1}\t{'dep' if i > 1 else 'root'}\t_\t_"
                 for i in range(1, 91)]
        text = Path(MINIMAL).read_text() + "\n" + "\n".join(words) + "\n"
        long_file = tmp_path / "long.conllu"
        long_file.write_text(text)
        name, *flags = command
        assert main([name, str(long_file), *flags, str(tmp_path / "out"), *TOY]) == 2
        assert capsys.readouterr().err.strip() == (
            f"sga {name}: {long_file}: sentence 2: rendered sentence has 539 characters, "
            "exceeding the configured maximum of 400"
        )

    def test_failed_encode_leaves_no_output(self, tmp_path, capsys):
        """Every sentence is prepared before the output directory is made,
        so an over-long second sentence leaves nothing behind."""
        words = [f"{i}\tabcdefg\t_\t_\t_\t_\t{i - 1}\t{'dep' if i > 1 else 'root'}\t_\t_"
                 for i in range(1, 91)]
        long_file = tmp_path / "long.conllu"
        long_file.write_text(Path(MINIMAL).read_text() + "\n" + "\n".join(words) + "\n")
        out = tmp_path / "out"
        assert main(["encode", str(long_file), "--random-init", *TOY, "--out-dir", str(out)]) == 2
        assert "sentence 2: rendered sentence has 719 characters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["conllu", "config"])
    def test_non_utf8_input_names_its_line(self, tmp_path, capsys, reader):
        """A bad byte on line 2 is reported at line 2, behind a BOM too."""
        conllu, cfg = tmp_path / "in.conllu", tmp_path / "run.cfg"
        conllu.write_bytes(Path(MINIMAL).read_bytes())
        cfg.write_text("d_model=16\nheads=2\n")
        bad = conllu if reader == "conllu" else cfg
        lines = bad.read_bytes().split(b"\n")
        lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
        bad.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines))
        argv = ["encode", str(conllu), "--random-init", "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"sga encode: {bad}:2: not valid UTF-8\n"

    def test_max_chars_enforced(self, tmp_path, capsys):
        assert main(
            ["encode", FLIGHT, "--random-init", *TOY, "--max-chars", "10",
             "--out-dir", str(tmp_path / "enc")]
        ) == 2
        assert "maximum" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, env, source", [
        (["encode", MINIMAL, "--random-init", "--toy"], "abc", "SGA_SEED"),
        (["encode", MINIMAL, "--random-init", "--toy"], "-1", "SGA_SEED"),
        (["encode", MINIMAL, "--random-init", "--toy", "--seed", "-1"], None, "--seed"),
        (["toytrain", MINIMAL, "--epochs", "0", "--toy", "--seed", "-1"], None, "--seed"),
        (["verify", "algebra", "--seed", "-1"], None, "--seed"),
    ], ids=["env-abc", "env-negative", "encode", "toytrain", "verify"])
    def test_bad_seed_names_its_source(self, tmp_path, capsys, monkeypatch, argv, env, source):
        if env is None:
            monkeypatch.delenv("SGA_SEED", raising=False)
        else:
            monkeypatch.setenv("SGA_SEED", env)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{source} must be a non-negative integer, got " in err
        assert (env or "-1") in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGA_SEED", "3")
        a = tmp_path / "env"
        assert main(["encode", DOGS, "--random-init", "--toy", "--out-dir", str(a)]) == 0
        b = tmp_path / "flag"
        assert main(
            ["encode", DOGS, "--random-init", *TOY, "--out-dir", str(b)]
        ) == 0
        assert read_tree(a) == read_tree(b)
