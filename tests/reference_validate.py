"""The per-frame ``validate`` that the whole-array one replaced.

Kept as the reference the validation tests compare against: it walks
``score.frames`` in Python and checks each voice field by field, with the
bounds written out as literals (pulse notes {0} u [32,108], triangle notes
{0} u [21,108], noise notes [0,16], velocity [0,15], pulse timbre [0,3],
noise timbre [0,1]).
"""

from nesscore.score import Diagnostic, ExpressiveScore


def _check_melodic(out, i, voice, note, vel, timbre, note_min, timbre_max):
    if not (note == 0 or note_min <= note <= 108):
        out.append(Diagnostic(i, voice, f"note {note} outside {{0}} u [{note_min},108]"))
    if not 0 <= vel <= 15:
        out.append(Diagnostic(i, voice, f"velocity {vel} outside [0,15]"))
    if not 0 <= timbre <= timbre_max:
        out.append(Diagnostic(i, voice, f"timbre {timbre} outside [0,{timbre_max}]"))
    if note == 0 and (vel != 0 or timbre != 0):
        out.append(Diagnostic(i, voice, "off state must be (0, 0, 0)"))
    if note != 0 and vel == 0:
        out.append(Diagnostic(i, voice, "sounding note with velocity 0"))


def validate_by_frame(score: ExpressiveScore) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for i, f in enumerate(score.frames):
        _check_melodic(out, i, "P1", f.p1_note, f.p1_vel, f.p1_timbre, 32, 3)
        _check_melodic(out, i, "P2", f.p2_note, f.p2_vel, f.p2_timbre, 32, 3)
        if not (f.tr_note == 0 or 21 <= f.tr_note <= 108):
            out.append(Diagnostic(i, "TR", f"note {f.tr_note} outside {{0}} u [21,108]"))
        if not 0 <= f.no_note <= 16:
            out.append(Diagnostic(i, "NO", f"note {f.no_note} outside [0,16]"))
        if not 0 <= f.no_vel <= 15:
            out.append(Diagnostic(i, "NO", f"velocity {f.no_vel} outside [0,15]"))
        if not 0 <= f.no_timbre <= 1:
            out.append(Diagnostic(i, "NO", f"timbre {f.no_timbre} outside [0,1]"))
        if f.no_note == 0 and (f.no_vel != 0 or f.no_timbre != 0):
            out.append(Diagnostic(i, "NO", "off state must be (0, 0, 0)"))
        if f.no_note != 0 and f.no_vel == 0:
            out.append(Diagnostic(i, "NO", "sounding note with velocity 0"))
    return out
