"""The examples of README.md, run as written."""

import doctest
import io
import re
import shlex
from pathlib import Path

from aspforget import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_quick_start_python_block():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", None, 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
    assert test.examples


def test_cli_examples(capsys, monkeypatch):
    # each `$ echo "TEXT" | aspforget ARGS` line, with the lines after it
    # up to the closing fence as its standard output; both exit 0
    examples = re.findall(r'\$ echo "(.*?)" \| aspforget (.*?)\n(.*?)```',
                          README, re.S)
    assert [args for _, args, _ in examples] \
        == ["forget --atom q -", "omega --atoms q -"]
    for text, args, want in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        assert cli.main(shlex.split(args)) == 0
        assert capsys.readouterr().out == want
