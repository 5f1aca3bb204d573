"""The per-auction CMRA clock loop, kept as the reference for the engine.

``cmra.mechanism.run_cmra`` runs through the lockstep clock loop that
also replays the deviation search's families.  This is the plain loop
it replaced: two books, one full closing solve per tick.
"""

from cmra.bidbook import BidBook
from cmra.mechanism import (_apply_round, _build_outcome, _log_round,
                            _max_price_outcome, _refine_close, solve_closing)


def reference_run_cmra(strategy1, strategy2, config):
    """One auction from the start price, one ``solve_closing`` per tick."""
    strategies = (strategy1, strategy2)
    books = (BidBook(config.grid, config.money_scale),
             BidBook(config.grid, config.money_scale))
    log: list = []
    t = 0
    prev_price = None
    while True:
        price = config.start + t * config.eps
        if price > config.max_price + 1e-12:
            return _max_price_outcome(config, log)
        base = (books[0].copy(), books[1].copy())
        emissions = [_apply_round(b, s, price) for b, s in zip(books, strategies)]
        result = solve_closing(books[0], books[1])
        if config.log_rounds:
            _log_round(log, t, price, emissions, result.closed, result.r_star)
        if result.closed:
            if config.refine and prev_price is not None:
                price, books, result = _refine_close(
                    base, strategies, prev_price, price, books, config)
            return _build_outcome(price, books, result, config, log)
        prev_price = price
        t += 1
