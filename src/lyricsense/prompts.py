"""Prompt templates wrapping a sample for the language model.

Seven variants: three template kinds, each with and without song metadata,
plus the bare ``none`` kind that passes the fragment through untouched.
``TEMPLATES`` is the one table of them, in the grid's variant order. The
template strings are frozen; golden tests pin every byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .corpus import Sample


class PromptKind(str, Enum):
    LYRICS_MEANING = "lyrics_meaning"
    SONG_TASK = "song_task"
    QUESTION_CONTEXT = "question_context"
    NONE = "none"


class PromptError(ValueError):
    """A sample is missing a field the chosen template needs."""


@dataclass(frozen=True)
class PromptSpec:
    kind: PromptKind
    with_metadata: bool = False

    def __post_init__(self) -> None:
        if (self.kind, self.with_metadata) not in TEMPLATES:
            raise ValueError(f"no prompt variant for kind {self.kind!r} with_metadata={self.with_metadata}")

    @property
    def spec_id(self) -> str:
        suffix = "_meta" if self.with_metadata else ""
        return f"{self.kind.value}{suffix}"

    @classmethod
    def from_id(cls, spec_id: str, where: str = "prompt") -> "PromptSpec":
        for spec in cls.all_variants():
            if spec.spec_id == spec_id:
                return spec
        raise ValueError(f"{where}: unknown prompt spec {spec_id!r}")

    @classmethod
    def all_variants(cls) -> list["PromptSpec"]:
        return [cls(kind, with_metadata) for kind, with_metadata in TEMPLATES]


# (kind, with_metadata) -> (template, continuation marker), in the grid's variant order.
TEMPLATES: dict[tuple[PromptKind, bool], tuple[str, str]] = {
    (PromptKind.LYRICS_MEANING, False): ("lyrics: {fragment}. meaning:", "meaning:"),
    (PromptKind.LYRICS_MEANING, True):
        ("artist: {artist}. title: {title}. lyrics: {fragment}. meaning:", "meaning:"),
    (PromptKind.SONG_TASK, False): ("explain the song. lyrics: {fragment}. meaning:", "meaning:"),
    (PromptKind.SONG_TASK, True):
        ("explain the song {title}, written by {artist}. lyrics: {fragment}. meaning:", "meaning:"),
    (PromptKind.QUESTION_CONTEXT, False):
        ("question: what is the meaning of this song? context: {fragment}. answer:", "answer:"),
    (PromptKind.QUESTION_CONTEXT, True):
        ('question: what is the meaning of {artist} in his song "{title}"? context: {fragment}. answer:', "answer:"),
    (PromptKind.NONE, False): ("{fragment}", ""),
}


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    continuation_marker: str


def render(spec: PromptSpec, sample: Sample) -> RenderedPrompt:
    """Fill the canonical template for ``spec`` with the sample's fields."""
    if not sample.fragment:
        raise PromptError("sample fragment is empty")
    if spec.with_metadata and (not sample.artist or not sample.title):
        raise PromptError(f"prompt {spec.spec_id!r} needs artist and title metadata")
    template, marker = TEMPLATES[spec.kind, spec.with_metadata]
    return RenderedPrompt(template.format(artist=sample.artist, title=sample.title, fragment=sample.fragment), marker)


def render_with_target(spec: PromptSpec, sample: Sample) -> str:
    """Prompt text followed by the gold annotation, for fitting and scoring."""
    return f"{render(spec, sample).text} {sample.annotation}"


def extract_generation(full_output: str, prompt: RenderedPrompt) -> str:
    """Continuation after the prompt, with leading whitespace trimmed."""
    if not full_output.startswith(prompt.text):
        raise ValueError("model output does not start with the prompt text")
    return full_output[len(prompt.text):].lstrip()
