import io
import json
import re
import shutil

import pytest

from incnlu import default_config, load_dataset, train_pipeline
from incnlu.cli import main
from incnlu.data import TrainingDataset
from incnlu.interpreter import load as load_bundle

from conftest import make_example, reseal, toy_rows

UTF8_LINE = "play café jazz\n".encode("utf-8")
LATIN1_LINE = "play café jazz\n".encode("latin-1")
WIRE_RE = re.compile(r"^\S*\t\d\.\d{6}\t(\S+:\S+:\d+:\d+(;\S+:\S+:\d+:\d+)*)?$")


def _files(root):
    """The bytes of every file below ``root``, by relative path."""
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def assert_one_line_error(capsys, command):
    """The CLI's failure contract: one ``incnlu <command>: ...`` line on stderr."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"incnlu {command}: "), err


@pytest.fixture(scope="session")
def cli_env(tmp_path_factory):
    """A trained bundle plus the data files the CLI tests poke at."""
    import contextlib

    from incnlu.data import save_json

    root = tmp_path_factory.mktemp("cli")
    data = root / "toy.json"
    save_json(TrainingDataset([make_example(*r) for r in toy_rows()]), data)
    bundle = root / "bundle"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--data", str(data), "--out", str(bundle)])
    assert code == 0
    return {"root": root, "data": data, "bundle": bundle}


class TestTrain:
    def test_reports_counts_and_writes_a_bundle(self, cli_env, capsys):
        out = cli_env["root"] / "bundle2"
        code = main(["train", "--data", str(cli_env["data"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "trained on 14 utterances" in captured.out
        # One row per component, in pipeline order, with its milliseconds.
        rows = [re.fullmatch(r"  (\S+) +\d+\.\d ms", line) for line in captured.out.splitlines()[1:]]
        assert all(rows)
        assert [row[1] for row in rows] == [c.name for c in load_bundle(out).components]
        assert (out / "manifest.json").exists()
        assert (out / "config.yml").exists()
        assert (out / "intent_sium" / "vocabulary.tsv").exists()

    def test_accepts_a_config_file(self, cli_env, tmp_path, capsys):
        config = tmp_path / "two.yml"
        config.write_text(
            'language: "en"\npipeline:\n- name: "tokenizer_whitespace"\n- name: "intent_sium"\n',
            encoding="utf-8",
        )
        out = tmp_path / "bundle"
        code = main(
            ["train", "--config", str(config), "--data", str(cli_env["data"]), "--out", str(out)]
        )
        assert code == 0
        assert "trained on" in capsys.readouterr().out
        loaded = load_bundle(out)
        assert [c.name for c in loaded.components] == ["tokenizer_whitespace", "intent_sium"]

    @staticmethod
    def _train_with(cli_env, tmp_path, component, line):
        """Run ``incnlu train`` on a pipeline whose ``component`` has ``line``."""
        config = tmp_path / "bad.yml"
        config.write_text(
            'language: "en"\npipeline:\n- name: "tokenizer_whitespace"\n'
            f'- name: "featurizer_count_vectors"\n- name: "{component}"\n  {line}\n',
            encoding="utf-8",
        )
        return main(
            ["train", "--config", str(config), "--data", str(cli_env["data"]),
             "--out", str(tmp_path / "bundle")]
        )

    def test_out_of_range_parameter_exits_one_with_a_one_line_error(self, cli_env, tmp_path, capsys):
        code = self._train_with(cli_env, tmp_path, "intent_classifier_bow", "batch_size: 0")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("incnlu train: ")
        assert "batch_size" in captured.err

    def test_negative_seed_exits_one_with_a_one_line_error(self, cli_env, tmp_path, capsys):
        code = main(["train", "--data", str(cli_env["data"]), "--out", str(tmp_path / "bundle"),
                     "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("incnlu train: ")
        assert "intent_classifier_bow seed" in captured.err

    @pytest.mark.parametrize(
        "component, line", [("intent_sium", "alpha: nan"), ("intent_classifier_bow", "l2: inf")]
    )
    def test_non_finite_parameter_exits_one_with_a_one_line_error(
        self, cli_env, tmp_path, capsys, component, line
    ):
        code = self._train_with(cli_env, tmp_path, component, line)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("incnlu train: ")
        assert component in captured.err and line.split(":")[0] in captured.err

    def test_missing_required_flag_exits_one(self, cli_env, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(cli_env["data"])])
        assert err.value.code == 1
        assert "--out" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_data_file_exits_one(self, cli_env, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "absent.json"), "--out", str(tmp_path / "b")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_out_naming_an_existing_file_exits_one(self, cli_env, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "train")

    def test_out_holding_files_exits_one_and_leaves_them(self, cli_env, tmp_path, capsys):
        """Retraining into a bundle's directory would keep its files inside
        the new bundle; it is refused, and the old bundle stays as it was."""
        out = tmp_path / "bundle"
        shutil.copytree(cli_env["bundle"], out)
        before = _files(out)
        assert main(["train", "--data", str(cli_env["data"]), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "train")
        assert _files(out) == before

    def test_the_cli_and_train_pipeline_write_the_same_bundle(self, cli_env, tmp_path, capsys):
        """Both hand the seed to every component that takes one and whose
        config pins none, so the bundles that both record as seed 13 are
        byte-identical."""
        assert main(["train", "--data", str(cli_env["data"]), "--out", str(tmp_path / "cli"), "--seed", "13"]) == 0
        train_pipeline(default_config(), load_dataset(cli_env["data"]), seed=13).persist(tmp_path / "api")
        assert _files(tmp_path / "cli") == _files(tmp_path / "api")

    def test_a_lone_surrogate_in_the_data_exits_one_and_writes_no_bundle(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        examples = [{"text": "play jazz", "intent": "PlayMusic"}, {"text": "rain", "intent": "Get\ud800"}]
        data.write_text(json.dumps({"rasa_nlu_data": {"common_examples": examples}}), encoding="utf-8")
        out = tmp_path / "bundle"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 1
        assert_one_line_error(capsys, "train")
        assert not out.exists()

    def test_out_under_a_file_exits_one(self, cli_env, tmp_path, capsys):
        parent = tmp_path / "file"
        parent.write_text("", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--out", str(parent / "b")]) == 1
        assert_one_line_error(capsys, "train")

    def test_data_naming_a_directory_exits_one(self, tmp_path, capsys):
        data = tmp_path / "x.json"
        data.mkdir()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "b")]) == 1
        assert_one_line_error(capsys, "train")

    def test_config_file_that_is_not_utf8_exits_one_with_a_one_line_error(self, cli_env, tmp_path, capsys):
        config = tmp_path / "latin1.yml"
        config.write_bytes('language: "en"\n# café\npipeline:\n- name: "tokenizer_whitespace"\n'.encode("latin-1"))
        code = main(["train", "--config", str(config), "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "bundle")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("incnlu train: ") and "not UTF-8" in captured.err


class TestParse:
    def test_parses_a_file_of_utterances(self, cli_env, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("book a table for two\nplay some jazz\n\n", encoding="utf-8")
        code = main(["parse", "--model", str(cli_env["bundle"]), "--input", str(batch)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 2  # the blank line produces no output
        for line in lines:
            assert WIRE_RE.match(line), line
        intent, confidence, entities = lines[0].split("\t")
        assert intent == "BookRestaurant"
        assert 0.0 < float(confidence) <= 1.0
        assert entities == "party_size:two:4:5"
        assert lines[1].startswith("PlayMusic\t")

    def test_reads_stdin_when_no_input_given(self, cli_env, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("weather in denver\n"))
        code = main(["parse", "--model", str(cli_env["bundle"])])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("GetWeather\t")

    def test_input_file_that_is_not_utf8_exits_one_with_a_one_line_error(self, cli_env, tmp_path, capsys):
        batch = tmp_path / "latin1.txt"
        batch.write_bytes(LATIN1_LINE)
        code = main(["parse", "--model", str(cli_env["bundle"]), "--input", str(batch)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"incnlu parse: {batch}: not UTF-8")

    def test_stdin_is_read_as_utf8_whatever_its_encoding(self, cli_env, tmp_path, capsys, monkeypatch):
        batch = tmp_path / "utf8.txt"
        batch.write_bytes(UTF8_LINE)
        assert main(["parse", "--model", str(cli_env["bundle"]), "--input", str(batch)]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(UTF8_LINE), encoding="ascii"))
        assert main(["parse", "--model", str(cli_env["bundle"])]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["parse", "stream"])
    def test_stdin_that_is_not_utf8_exits_one_with_a_one_line_error(self, cli_env, capsys, monkeypatch,
                                                                    command):
        """Even where the locale names Latin-1."""
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(LATIN1_LINE), encoding="latin-1"))
        code = main([command, "--model", str(cli_env["bundle"])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"incnlu {command}: standard input: not UTF-8")

    def test_input_naming_a_directory_exits_one(self, cli_env, tmp_path, capsys):
        assert main(["parse", "--model", str(cli_env["bundle"]), "--input", str(tmp_path)]) == 1
        assert_one_line_error(capsys, "parse")

    def test_missing_bundle_exits_one(self, tmp_path, capsys):
        code = main(["parse", "--model", str(tmp_path / "nothing"), "--input", "/dev/null"])
        assert code == 1
        assert "manifest" in capsys.readouterr().err


class TestStream:
    def _run(self, cli_env, feed, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(feed))
        code = main(["stream", "--model", str(cli_env["bundle"])])
        captured = capsys.readouterr()
        return code, captured.out.strip().splitlines(), captured.err

    def test_one_result_line_per_edit(self, cli_env, monkeypatch, capsys):
        code, lines, err = self._run(cli_env, "weather\nin\nboston\n", monkeypatch, capsys)
        assert code == 0 and err == ""
        assert len(lines) == 3
        for line in lines:
            assert WIRE_RE.match(line), line
        assert lines[-1].split("\t")[0] == "GetWeather"

    def test_revoke_rewinds_to_the_clean_result(self, cli_env, monkeypatch, capsys):
        feed = "weather\nin\ndenver\n<REVOKE>\nboston\n"
        code, lines, _ = self._run(cli_env, feed, monkeypatch, capsys)
        assert code == 0
        assert len(lines) == 5
        # after the detour the stream must land exactly where a clean run does
        clean_code, clean_lines, _ = self._run(
            cli_env, "weather\nin\nboston\n", monkeypatch, capsys
        )
        assert clean_code == 0
        assert lines[-1] == clean_lines[-1]
        # and the post-revoke line matches the two-word prefix of the clean run
        assert lines[3] == clean_lines[1]

    def test_blank_line_starts_a_new_utterance(self, cli_env, monkeypatch, capsys):
        code, lines, _ = self._run(cli_env, "play\n\njazz\n", monkeypatch, capsys)
        assert code == 0
        assert len(lines) == 2
        fresh_code, fresh_lines, _ = self._run(cli_env, "jazz\n", monkeypatch, capsys)
        assert fresh_code == 0
        assert lines[1] == fresh_lines[0]

    def test_revoke_on_empty_session_reports_and_continues(self, cli_env, monkeypatch, capsys):
        code, lines, err = self._run(cli_env, "<REVOKE>\nboston\n", monkeypatch, capsys)
        assert code == 0
        assert err.startswith("error:")
        assert len(lines) == 1  # the session survived the bad edit


class TestEval:
    def test_passing_run_exits_zero_and_writes_the_report(self, cli_env, tmp_path, capsys):
        report = tmp_path / "report.kv"
        code = main(
            [
                "eval",
                "--model", str(cli_env["bundle"]),
                "--test", str(cli_env["data"]),
                "--noise-rate", "0.4",
                "--report", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all consistency checks pass: yes" in out
        kv = dict(
            line.split("=", 1) for line in report.read_text(encoding="utf-8").strip().splitlines()
        )
        assert kv["all_checks_pass"] == "1"
        assert kv["equivalence.exact"] == kv["equivalence.total"] == "14"
        assert kv["noise.rate_0.4.passed"] == "14"

    def test_out_of_range_noise_rate_exits_one(self, cli_env, capsys):
        code = main(
            [
                "eval",
                "--model", str(cli_env["bundle"]),
                "--test", str(cli_env["data"]),
                "--noise-rate", "1.5",
            ]
        )
        assert code == 1
        assert "noise-rate" in capsys.readouterr().err

    def test_report_naming_a_directory_exits_one(self, cli_env, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--model", str(cli_env["bundle"]),
                "--test", str(cli_env["data"]),
                "--noise-rate", "0.0",
                "--report", str(tmp_path),
            ]
        )
        assert code == 1
        assert_one_line_error(capsys, "eval")

    def test_malformed_bundle_exits_one_with_a_one_line_error(self, cli_env, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(cli_env["bundle"], bundle)
        weights = bundle / "intent_classifier_bow" / "weights.f8"
        weights.write_bytes(weights.read_bytes()[:-8])
        reseal(bundle)
        code = main(["eval", "--model", str(bundle), "--test", str(cli_env["data"])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("incnlu eval: ")
        assert "intent_classifier_bow" in captured.err
