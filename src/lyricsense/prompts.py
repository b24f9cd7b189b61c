"""Prompt templates wrapping a sample for the language model.

Seven variants: three template kinds, each with and without song metadata,
plus the bare ``none`` kind that passes the fragment through untouched.
The template strings are frozen; golden tests pin every byte.
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
        if self.kind == PromptKind.NONE and self.with_metadata:
            raise ValueError("the bare prompt has no metadata variant")

    @property
    def spec_id(self) -> str:
        suffix = "_meta" if self.with_metadata else ""
        return f"{self.kind.value}{suffix}"

    @classmethod
    def from_id(cls, spec_id: str, where: str = "prompt") -> "PromptSpec":
        with_metadata = spec_id.endswith("_meta")
        kind_value = spec_id[: -len("_meta")] if with_metadata else spec_id
        try:
            return cls(PromptKind(kind_value), with_metadata)
        except ValueError:
            raise ValueError(f"{where}: unknown prompt spec {spec_id!r}") from None

    @classmethod
    def all_variants(cls) -> list["PromptSpec"]:
        variants = []
        for kind in (PromptKind.LYRICS_MEANING, PromptKind.SONG_TASK, PromptKind.QUESTION_CONTEXT):
            variants.append(cls(kind, False))
            variants.append(cls(kind, True))
        variants.append(cls(PromptKind.NONE, False))
        return variants


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

    kind = spec.kind
    if kind == PromptKind.NONE:
        return RenderedPrompt(text=sample.fragment, continuation_marker="")
    if kind == PromptKind.LYRICS_MEANING:
        if spec.with_metadata:
            text = (
                f"artist: {sample.artist}. title: {sample.title}. "
                f"lyrics: {sample.fragment}. meaning:"
            )
        else:
            text = f"lyrics: {sample.fragment}. meaning:"
        return RenderedPrompt(text=text, continuation_marker="meaning:")
    if kind == PromptKind.SONG_TASK:
        if spec.with_metadata:
            text = (
                f"explain the song {sample.title}, written by {sample.artist}. "
                f"lyrics: {sample.fragment}. meaning:"
            )
        else:
            text = f"explain the song. lyrics: {sample.fragment}. meaning:"
        return RenderedPrompt(text=text, continuation_marker="meaning:")
    if kind == PromptKind.QUESTION_CONTEXT:
        if spec.with_metadata:
            text = (
                f'question: what is the meaning of {sample.artist} in his song "{sample.title}"? '
                f"context: {sample.fragment}. answer:"
            )
        else:
            text = (
                f"question: what is the meaning of this song? "
                f"context: {sample.fragment}. answer:"
            )
        return RenderedPrompt(text=text, continuation_marker="answer:")
    raise ValueError(f"unhandled prompt kind {kind!r}")


def render_with_target(spec: PromptSpec, sample: Sample) -> str:
    """Prompt text followed by the gold annotation, for fitting and scoring."""
    return f"{render(spec, sample).text} {sample.annotation}"


def extract_generation(full_output: str, prompt: RenderedPrompt) -> str:
    """Continuation after the prompt, with leading whitespace trimmed."""
    if not full_output.startswith(prompt.text):
        raise ValueError("model output does not start with the prompt text")
    return full_output[len(prompt.text):].lstrip()
