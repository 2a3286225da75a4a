"""Hand-made lowered programs for the sweep tests.

:func:`program` takes a program in nested form -- per plan node its arcs
as ``(source, delay, stream)`` with the stream an int list, per input
``(relation, exchange, schedule, ready_arcs)``, per output ``(relation,
offer node)`` and per resource ``(name, [(start, end), ...])`` -- and
writes it onto the flat tables of :class:`~repro.dse.engine.ArrayProgram`.
Each distinct stream list (by identity) becomes one column of the
program's :class:`~repro.dse.engine.StreamTable`; programs built over one
shared table (``streams=``) read the same columns.  :func:`arc_groups`
reads the arcs back in nested form.
"""

from repro.dse.engine import ArrayProgram, StreamTable


def column(streams, values):
    """The column holding the list ``values`` itself, added if new."""
    for index, existing in enumerate(streams.columns):
        if existing is values:
            return index
    return streams.add(values)


def program(
    iterations,
    node_count,
    plan_nodes,
    plan_arcs,
    inputs,
    outputs,
    slots,
    periods=None,
    streams=None,
):
    """An :class:`ArrayProgram` of the nested description (see the module)."""
    streams = StreamTable(iterations) if streams is None else streams
    assert streams.horizon == iterations
    arcs, arc_ptr = [], [0]
    for group in [*plan_arcs, *(ready for *_, ready in inputs)]:
        for source, delay, values in group:
            arcs += (source, delay, column(streams, values))
        arc_ptr.append(len(arcs))
    slot_nodes, slot_ptr = [], [0]
    for _, pairs in slots:
        for pair in pairs:
            slot_nodes += pair
        slot_ptr.append(len(slot_nodes))
    return ArrayProgram(
        streams=streams,
        node_count=node_count,
        plan_nodes=list(plan_nodes),
        arc_ptr=arc_ptr,
        arcs=arcs,
        inputs=[relation for relation, *_ in inputs],
        exchanges=[exchange for _, exchange, _, _ in inputs],
        schedules=[column(streams, schedule) for _, _, schedule, _ in inputs],
        outputs=[relation for relation, _ in outputs],
        offer_nodes=[node for _, node in outputs],
        resources=[name for name, _ in slots],
        slot_ptr=slot_ptr,
        slot_nodes=slot_nodes,
        periods=periods,
    )


def arc_groups(lowered):
    """Per arc group (plan nodes, then inputs' ready nodes) its
    ``(source, delay, stream)`` arcs, streams as the table's lists."""
    arcs, columns = lowered.arcs, lowered.streams.columns
    return [
        [(arcs[at], arcs[at + 1], columns[arcs[at + 2]]) for at in range(a, b, 3)]
        for a, b in zip(lowered.arc_ptr, lowered.arc_ptr[1:])
    ]


def with_group(lowered, group, arcs):
    """``lowered`` with arc group ``group`` replaced by the nested ``arcs``."""
    flat = []
    for source, delay, values in arcs:
        flat += (source, delay, column(lowered.streams, values))
    a, b = lowered.arc_ptr[group], lowered.arc_ptr[group + 1]
    shift = len(flat) - (b - a)
    later = [at + shift for at in lowered.arc_ptr[group + 1 :]]
    return lowered._replace(
        arcs=[*lowered.arcs[:a], *flat, *lowered.arcs[b:]],
        arc_ptr=[*lowered.arc_ptr[: group + 1], *later],
    )


def plain(result):
    """A replay result with the kernel's int64 offer rows as int lists."""
    if result is None:
        return None
    offers, *rest = result
    return ({relation: list(map(int, row)) for relation, row in offers.items()}, *rest)
