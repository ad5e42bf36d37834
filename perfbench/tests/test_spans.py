import spans


def _span(sid, parent, start, end, layer="x", name="x"):
    return spans.Span(sid, parent, layer, name, start, end)


def test_self_time_counts_overlapping_children_once():
    tracer = spans.Tracer()
    root = _span(1, None, 0.0, 10.0, "cli", "run")
    tracer.spans = [
        root,
        _span(2, 1, 1.0, 4.0, "pipeline", "run_pipeline"),
        _span(3, 1, 3.0, 6.0, "pipeline", "run_pipeline"),  # another worker thread
        _span(4, 2, 1.5, 2.5, "index", "search"),
    ]
    stats = spans.summarise(tracer)
    assert stats[("run", "cli", "run")].self_s == 5.0
    pipe = stats[("run", "pipeline", "run_pipeline")]
    assert pipe.calls == 2 and pipe.total_s == 6.0 and pipe.self_s == 5.0


def test_wrappers_record_and_uninstall():
    import iterqe.pipeline

    original = iterqe.pipeline.search_topk
    target = spans.Target("index", "search", "iterqe.pipeline", "search_topk")
    gone = spans.Target("index", "search", "iterqe.pipeline", "no_such_function")
    tracer = spans.Tracer()
    tracer.install([target, gone])
    assert tracer.missing == ["iterqe.pipeline.no_such_function"]
    assert iterqe.pipeline.search_topk is not original
    with tracer.command("run"):
        try:
            iterqe.pipeline.search_topk(None, "x", 0)  # rejects k=0 before using the index
        except ValueError:
            pass
    tracer.uninstall()
    assert iterqe.pipeline.search_topk is original
    assert [(s.layer, s.name) for s in tracer.spans] == [("index", "search"), ("cli", "run")]
    assert tracer.spans[0].parent == tracer.spans[1].sid
