"""Lexer for the mini-C language used by the case-study programs.

The language is a practical subset of C sufficient to express the paper's
motivating examples (Figures 1 and 2), the rijndael-style kernels and the
example programs: functions, structs, pointers, arrays, arithmetic, control
flow and calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List


class LexerError(Exception):
    """Raised on an unrecognised character or malformed literal."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


KEYWORDS = {
    "void", "int", "long", "short", "char", "float", "double", "bool",
    "unsigned", "signed", "struct", "return", "if", "else", "while", "for",
    "do", "break", "continue", "sizeof", "extern", "static", "true", "false",
    "NULL", "null",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_CHAR_OPERATORS = [
    "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

SINGLE_CHAR_OPERATORS = "+-*/%<>=!&|^~?:;,.(){}[]"


@dataclass
class Token:
    """A single lexical token."""

    kind: str          # 'ident', 'keyword', 'int', 'float', 'string', 'char', 'op', 'eof'
    text: str
    line: int
    column: int
    value: object = None

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r})"


class Lexer:
    """Converts source text into a token stream."""

    def __init__(self, source: str):
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.position:self.position + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return text

    def _skip_whitespace_and_comments(self) -> None:
        while self.position < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.position < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.position < len(self.source) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.position >= len(self.source):
                    raise self._error("unterminated block comment")
                self._advance(2)
            elif ch == "#":
                # preprocessor lines are ignored (the examples use #include)
                while self.position < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> List[Token]:
        result = list(self._iter_tokens())
        return result

    def _iter_tokens(self) -> Iterator[Token]:
        while True:
            self._skip_whitespace_and_comments()
            if self.position >= len(self.source):
                yield Token("eof", "", self.line, self.column)
                return
            yield self._next_token()

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            text = self._lex_identifier()
            kind = "keyword" if text in KEYWORDS else "ident"
            return Token(kind, text, line, column)

        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, column)

        if ch == '"':
            return self._lex_string(line, column)

        if ch == "'":
            return self._lex_char(line, column)

        for op in MULTI_CHAR_OPERATORS:
            if self.source.startswith(op, self.position):
                self._advance(len(op))
                return Token("op", op, line, column)

        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token("op", ch, line, column)

        raise self._error(f"unexpected character {ch!r}")

    def _lex_identifier(self) -> str:
        start = self.position
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self.source[start:self.position]

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.position
        is_float = False
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start:self.position]
            return Token("int", text, line, column, value=int(text, 16))
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (self._peek(1).isdigit()
                                           or self._peek(1) in ("+", "-")):
            is_float = True
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start:self.position]
        # float/long suffixes
        while self._peek() and self._peek() in "fFlLuU":
            suffix = self._advance()
            if suffix in ("f", "F"):
                is_float = True
        if is_float:
            return Token("float", text, line, column, value=float(text))
        return Token("int", text, line, column, value=int(text, 10))

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                escape = self._advance()
                chars.append({"n": "\n", "t": "\t", "0": "\0", '"': '"', "\\": "\\"}
                             .get(escape, escape))
                continue
            chars.append(self._advance())
        text = "".join(chars)
        return Token("string", text, line, column, value=text)

    def _lex_char(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        ch = self._advance()
        if ch == "\\":
            escape = self._advance()
            ch = {"n": "\n", "t": "\t", "0": "\0", "'": "'", "\\": "\\"}.get(escape, escape)
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return Token("char", ch, line, column, value=ord(ch))


def tokenize(source: str) -> List[Token]:
    """Tokenize mini-C source text."""
    return Lexer(source).tokens()
