import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from rmcdp import io as rio
from rmcdp.model import (
    DepotSpec,
    Instance,
    InputError,
    SiteSpec,
    TripId,
    ValidationError,
    loading_time,
    solution_space_size,
    total_trips,
    trips_for_site,
    truck_upper_bound,
)

from conftest import (
    random_instance,
    reference_hours_in_seconds,
    reference_trips,
    repeated_row_instance,
    replace,
    tight_gamma_instance,
)

MIN = 60


def make_instance(demands, unloads, distances, gamma=90 * MIN, productivity=120):
    sites = tuple(
        SiteSpec(
            id=i + 1,
            demand=demands[i],
            distance=distances[i],
            speed=60,
            unload_time=unloads[i],
            proposed_start=8 * 3600,
        )
        for i in range(len(demands))
    )
    depot = DepotSpec(
        start_time=8 * 3600,
        plant_capacity=10,
        productivity=productivity,
        truck_capacity=10,
        gamma=gamma,
    )
    return Instance(depot=depot, sites=sites)


class TestTripsForSite:
    def test_exact_division(self):
        assert trips_for_site(50, 10) == 5

    def test_partial_last_load(self):
        assert trips_for_site(51, 10) == 6
        assert trips_for_site(9.5, 10) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            trips_for_site(0, 10)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_ceiling(self, seed):
        rng = random.Random(seed)
        demand = rng.randint(1, 500)
        capacity = rng.randint(1, 30)
        assert trips_for_site(demand, capacity) == math.ceil(demand / capacity)


class TestLoadingTime:
    def test_reference_rates(self):
        assert loading_time(10, 120) == 5 * MIN
        assert loading_time(10, 60) == 10 * MIN

    def test_subminute_rate_is_exact(self):
        assert loading_time(1, 240) == 15

    def test_rejects_fractional_seconds(self):
        with pytest.raises(ValidationError):
            loading_time(1, 7)  # 3600/7 seconds


def outcome(read, *args):
    """What a reader gives: its value with the value's type, or its error's
    type and message."""
    try:
        value = read(*args)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, value


#: Divisors that often, but not always, leave whole seconds.
DIVISORS = (1, 2, 3, 7, 8, 60, 120, 0.5, 1.5, 7.2, 12.5, 0.3)


def as_kind(value, kind: int):
    """``value`` (an int, a float or a decimal string) as a float, an int
    when it is whole, a ``Fraction`` or a ``Decimal``."""
    exact = Decimal(str(value))
    if kind == 1 and exact == exact.to_integral_value():
        return int(exact)
    return (float(exact), float(exact), Fraction(exact), exact)[kind]


def drawn_pair(rng: random.Random):
    """A positive decimal and a divisor, each of a drawn kind."""
    top = f"{rng.randint(1, 10**5)}e-{rng.randint(0, 4)}"
    return as_kind(top, rng.randrange(4)), as_kind(rng.choice(DIVISORS), rng.randrange(4))


class TestExactReader:
    """Instance numbers are read once as integer ratios; the values and
    the messages are those of reading each number as a ``Fraction``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        whole = 0
        for _ in range(500):
            top, bottom = drawn_pair(rng)
            loaded = outcome(loading_time, top, bottom)
            assert loaded == outcome(
                reference_hours_in_seconds,
                top, "truck_capacity", bottom, "productivity", "loading time",
            )
            whole += loaded[0] == "int"
            assert outcome(trips_for_site, top, bottom) == outcome(
                reference_trips, top, bottom
            )
            hauled = SiteSpec(id=1, demand=10, distance=top, speed=bottom,
                              unload_time=10 * MIN, proposed_start=0)
            assert outcome(lambda: hauled.haul_time) == outcome(
                reference_hours_in_seconds, top, "distance", bottom, "speed", "haul time"
            )
        assert 100 <= whole <= 400  # both branches are drawn

    def test_non_whole_seconds_message(self):
        assert outcome(loading_time, 1, 7) == (
            "ValidationError", "loading time: 514.285714 is not a whole number of seconds"
        )
        assert outcome(loading_time, 1, 7) == outcome(
            reference_hours_in_seconds, 1, "truck_capacity", 7, "productivity", "loading time"
        )

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, Decimal("Infinity")], ids=["nan", "inf", "Decimal-inf"]
    )
    def test_not_a_number(self, bad):
        cases = [
            (loading_time, (bad, 120), "truck_capacity"),
            (loading_time, (10, bad), "productivity"),
            (trips_for_site, (bad, 10), "demand"),
            (trips_for_site, (10, bad), "truck_capacity"),
        ]
        for read, args, what in cases:
            assert outcome(read, *args) == ("ValidationError", f"{what}: not a number: {bad!r}")
        for distance, speed, what in ((bad, 60, "distance"), (10, bad, "speed")):
            hauled = SiteSpec(id=1, demand=10, distance=distance, speed=speed,
                              unload_time=10 * MIN, proposed_start=0)
            assert outcome(lambda: hauled.haul_time) == outcome(
                reference_hours_in_seconds, distance, "distance", speed, "speed", "haul time"
            ) == ("ValidationError", f"{what}: not a number: {bad!r}")

    @pytest.mark.parametrize(
        "nan", [math.nan, Decimal("NaN"), Decimal("sNaN")], ids=["float", "Decimal", "sNaN"]
    )
    def test_nan_in_each_argument_refused_by_name(self, nan):
        # Each number is read before its sign is tested, so a Decimal NaN
        # is refused by name instead of signalling in a comparison.
        cases = [
            (loading_time, (nan, 120), "truck_capacity: not a number"),
            (loading_time, (10, nan), "productivity: not a number"),
            (trips_for_site, (nan, 10), "demand: not a number"),
            (trips_for_site, (10, nan), "truck_capacity: not a number"),
            # The arguments are still tested in order.
            (loading_time, (nan, 0), "truck_capacity: not a number"),
            (loading_time, (0, nan), "truck_capacity: must be positive"),
            (trips_for_site, (nan, -1), "demand: not a number"),
            (trips_for_site, (-5, nan), "demand: must be positive"),
            # Nor is a value of no number type compared first.
            (loading_time, ("10", 120), "truck_capacity: not a number: '10'"),
            (trips_for_site, (10, None), "truck_capacity: not a number: None"),
        ]
        for read, args, message in cases:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
                read(*args)

    @pytest.mark.parametrize(
        "bad, shown",
        [("a" * 5000, "5000 characters"),
         ([1] * 2000, "a list 6000 characters long"),
         ("x" * 40, repr("x" * 40)),
         ([1], "[1]")],
        ids=["long-string", "long-list", "string-at-40", "short-list"],
    )
    def test_not_a_number_shown_up_to_40_characters(self, bad, shown):
        for read, args, what in ((trips_for_site, (bad, 10), "demand"),
                                 (loading_time, (10, bad), "productivity")):
            with pytest.raises(ValidationError) as err:
                read(*args)
            assert str(err.value) == f"{what}: not a number: {shown}"


class TestDerivedQuantities:
    def test_total_trips(self):
        instance = make_instance([50, 45], [25 * MIN, 25 * MIN], [10, 10])
        assert total_trips(instance) == 10

    def test_trips_follow_the_site_list(self):
        sites = tuple(
            SiteSpec(id=site_id, demand=demand, distance=5, speed=60,
                     unload_time=10 * MIN, proposed_start=0)
            for site_id, demand in ((3, 20), (1, 5), (2, 30))
        )
        instance = Instance(DepotSpec(8 * 3600, 10, 120, 10), sites)
        assert instance.trips == (
            TripId(3, 1), TripId(3, 2), TripId(1, 1),
            TripId(2, 1), TripId(2, 2), TripId(2, 3),
        )
        assert total_trips(instance) == len(instance.trips) == 6

    def test_site_lookup_by_id(self):
        instance = make_instance([10, 20], [10 * MIN] * 2, [5, 6])
        assert instance.site(2) is instance.sites[1]
        with pytest.raises(InputError, match="unknown site id 3"):
            instance.site(3)

    def test_truck_upper_bound(self):
        assert truck_upper_bound(90 * MIN, 5 * MIN) == 36
        assert truck_upper_bound(90 * MIN, 10 * MIN) == 18
        assert truck_upper_bound(10 * MIN, 20 * MIN) == 1


class TestSolutionSpaceSize:
    def test_two_sites_two_trips(self):
        instance = make_instance([20, 20], [20 * MIN, 20 * MIN], [10, 20], productivity=60)
        assert solution_space_size(instance) == 6

    def test_five_sites_five_trips_each(self, instance1):
        assert solution_space_size(instance1) == 623_360_743_125_120

    def test_nine_sites_five_trips_each(self, instance2):
        size = solution_space_size(instance2)
        assert size == math.factorial(45) // math.factorial(5) ** 9
        # Rounded to 8 significant digits.
        assert f"{float(size):.7e}" == "2.3183588e+37"

    def test_invariant_under_site_reordering(self):
        a = make_instance([30, 10], [10 * MIN, 15 * MIN], [5, 10])
        b = make_instance([10, 30], [15 * MIN, 10 * MIN], [10, 5])
        assert solution_space_size(a) == solution_space_size(b)


TWO_DAYS = 48 * 3600


def depot(**fields):
    return DepotSpec(**{"start_time": 8 * 3600, "plant_capacity": 10,
                        "productivity": 120, "truck_capacity": 10, **fields})


def site(**fields):
    return SiteSpec(**{"id": 1, "demand": 10, "distance": 5, "speed": 60,
                       "unload_time": 10 * MIN, "proposed_start": 0, **fields})


class TestSpecGuards:
    @pytest.mark.parametrize(
        "make, field, message",
        [
            (depot, "gamma", "depot.gamma: must be positive"),
            (site, "unload_time", "unload: must be positive"),
            (site, "gamma_override", "gamma_override: must be positive when given"),
        ],
    )
    @pytest.mark.parametrize("value", [0, -60])
    def test_non_positive_durations_rejected(self, make, field, message, value):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(**{field: value})

    @pytest.mark.parametrize(
        "make, field, message",
        [
            (depot, "start_time", "depot.start"),
            (depot, "gamma", "depot.gamma"),
            (site, "unload_time", "unload"),
            (site, "proposed_start", "proposed_start"),
            (site, "gamma_override", "gamma_override"),
        ],
    )
    def test_clocks_and_durations_bounded_at_48_hours(self, make, field, message):
        assert getattr(make(**{field: TWO_DAYS}), field) == TWO_DAYS
        for value in (TWO_DAYS + 1, 10**5000):
            with pytest.raises(ValidationError, match=rf"^{message}: must be at most 48 h"):
                make(**{field: value})

    @pytest.mark.parametrize(
        "make, field, message",
        [
            (depot, "start_time", "depot.start: must be non-negative"),
            (depot, "plant_capacity", "depot.plant_capacity: must be positive"),
            (depot, "productivity", "depot.productivity: must be positive"),
            (depot, "truck_capacity", "depot.truck_capacity: must be positive"),
            (depot, "truck_count", "depot.trucks: must be positive when given"),
            (depot, "gamma", "depot.gamma: must be positive"),
            (site, "id", "id: must be positive"),
            (site, "demand", "demand: must be positive"),
            (site, "unload_time", "unload: must be positive"),
            (site, "proposed_start", "proposed_start: must be non-negative"),
            (site, "gamma_override", "gamma_override: must be positive when given"),
        ],
    )
    def test_float_nan_rejected_by_name(self, make, field, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(**{field: math.nan})

    @pytest.mark.parametrize(
        "make, prefix, fields",
        [
            (depot, "depot.", ["start_time", "plant_capacity", "productivity",
                               "truck_capacity", "truck_count", "gamma"]),
            (site, "", ["id", "demand", "distance", "speed", "unload_time",
                        "proposed_start", "gamma_override"]),
        ],
        ids=["depot", "site"],
    )
    @pytest.mark.parametrize("nan", ["NaN", "sNaN"])
    def test_decimal_nan_rejected_by_name(self, make, prefix, fields, nan):
        for field in fields:
            message = f"{prefix}{field}: not a number: Decimal('{nan}')"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                make(**{field: Decimal(nan)})

    @pytest.mark.parametrize("field", ["distance", "speed"])
    def test_float_nan_haul_refused_by_name(self, field):
        # haul_time's exact reader refuses it, when the instance reads it.
        message = f"sites[0]: {field}: not a number: nan"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Instance(depot(), (site(**{field: math.nan}),))

    @pytest.mark.parametrize(
        "trucks, shown", [(16.5, "16.5"), (True, "True"), ("3", "'3'"), (Decimal(3), "Decimal('3')")]
    )
    def test_fleet_that_is_not_an_int_refused_by_name(self, trucks, shown):
        # Refused when the depot is built, not later as a solver's truck_limit.
        message = f"depot.trucks: must be an int when given, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            depot(truck_count=trucks)

    @pytest.mark.parametrize("trucks", [0, -3, 0.0, -2.5])
    def test_fleet_below_one_truck_refused_as_not_positive(self, trucks):
        with pytest.raises(ValidationError, match="^depot.trucks: must be positive when given$"):
            depot(truck_count=trucks)

    def test_instance_needs_a_site(self):
        with pytest.raises(ValidationError, match="^sites: at least one site is required$"):
            Instance(depot=depot(), sites=())

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: loading_time(0, 120), "truck_capacity: must be positive"),
            (lambda: loading_time(10, -1), "productivity: must be positive"),
            (lambda: trips_for_site(-5, 10), "demand: must be positive"),
            (lambda: trips_for_site(10, 0), "truck_capacity: must be positive"),
            (lambda: truck_upper_bound(90 * MIN, 0), "loading time must be positive"),
        ],
    )
    def test_non_positive_arguments_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


class TestValidation:
    def test_site_ids_must_cover_range(self):
        sites = (
            SiteSpec(id=1, demand=10, distance=5, speed=60,
                     unload_time=10 * MIN, proposed_start=0),
            SiteSpec(id=3, demand=10, distance=5, speed=60,
                     unload_time=10 * MIN, proposed_start=0),
        )
        depot = DepotSpec(8 * 3600, 10, 120, 10)
        with pytest.raises(ValidationError, match="ids"):
            Instance(depot=depot, sites=sites)

    def test_inaccessible_site_rejected(self):
        with pytest.raises(ValidationError, match="not accessible"):
            make_instance([10], [30 * MIN], [60])  # 5 + 60 + 30 > 90

    def test_gamma_override_tightens_accessibility(self):
        sites = (
            SiteSpec(id=1, demand=10, distance=10, speed=60,
                     unload_time=20 * MIN, proposed_start=0,
                     gamma_override=30 * MIN),
        )
        depot = DepotSpec(8 * 3600, 10, 120, 10)
        with pytest.raises(ValidationError, match="not accessible"):
            Instance(depot=depot, sites=sites)

    def test_fractional_haul_seconds_rejected(self):
        sites = (
            SiteSpec(id=1, demand=10, distance=1, speed=7,
                     unload_time=10 * MIN, proposed_start=0),
        )
        depot = DepotSpec(8 * 3600, 10, 120, 10)
        with pytest.raises(ValidationError, match="whole number of seconds"):
            Instance(depot=depot, sites=sites)

    def test_loading_must_fit_in_one_day(self):
        # Five-minute loadings: 288 trips fill 24 h at the depot.
        full = make_instance([1440, 1440], [10 * MIN] * 2, [5, 5])
        assert len(full.trips) == 288
        with pytest.raises(
            ValidationError,
            match=r"sites\[1\]\.demand: .* more than 24 h .*at most 288 trips of 300 s",
        ):
            make_instance([1440, 1441], [10 * MIN] * 2, [5, 5])


def derived_from_first_principles(instance: Instance):
    """The loading time, the haul times, ``timings``, ``trips`` and the id
    map of ``instance``, each worked out from the spec fields with
    ``Fraction`` arithmetic."""
    depot = instance.depot
    lt = reference_hours_in_seconds(
        depot.truck_capacity, "truck_capacity", depot.productivity, "productivity",
        "loading time",
    )
    hauls, rows, trips = [], [], []
    for site in instance.sites:
        haul = reference_hours_in_seconds(
            site.distance, "distance", site.speed, "speed", "haul time"
        )
        count = reference_trips(site.demand, depot.truck_capacity)
        gamma = depot.gamma if site.gamma_override is None else site.gamma_override
        hauls.append(haul)
        rows.append((site.id, count, lt + haul - site.proposed_start, site.unload_time, gamma))
        trips += [TripId(site.id, j) for j in range(1, count + 1)]
    by_id = {site.id: site for site in instance.sites}
    return lt, hauls, tuple(rows), tuple(trips), by_id


def float_instance() -> Instance:
    """Float, ``Decimal`` and ``Fraction`` inputs that come to whole seconds:
    4.5 km at 30 km/h is a 540 s haul, 7.5 m3 at 90 m3/h a 300 s loading."""
    sites = tuple(
        SiteSpec(id=i, demand=demand, distance=distance, speed=speed,
                 unload_time=20 * MIN, proposed_start=8 * 3600 + 600 * i)
        for i, (demand, distance, speed) in enumerate(
            [(16.5, 4.5, 30), (15, 28.5, 90.0), (Decimal("7.5"), Decimal("0.3"), 36),
             (Fraction(45, 2), Fraction(9, 2), 45), (7.4, 0, 60)],
            start=1,
        )
    )
    return Instance(DepotSpec(8 * 3600, 10, 90, 7.5, gamma=75 * MIN), sites)


def built_instances():
    for name in ("example-1", "instance-1", "instance-2"):
        yield rio.load_instance(rio.bundled_instance_path(name))
    for make in (random_instance, tight_gamma_instance, repeated_row_instance):
        for seed in range(100):
            yield make(random.Random(seed))
    yield float_instance()


class TestOnePassBuild:
    """Building an ``Instance`` works out each derived table once; every
    one equals its first-principles value."""

    def test_derived_tables_match_first_principles(self):
        for instance in built_instances():
            lt, hauls, rows, trips, by_id = derived_from_first_principles(instance)
            assert instance.depot.loading_time == lt
            assert [site.haul_time for site in instance.sites] == hauls
            assert instance.timings == rows
            assert all(type(value) is int for row in rows for value in row[1:])
            assert instance.trips == trips
            assert instance._sites_by_id == by_id
            assert all(instance.site(i) is site for i, site in by_id.items())

    def test_float_inputs(self):
        instance = float_instance()
        assert instance.depot.loading_time == 300
        assert [site.haul_time for site in instance.sites] == [540, 1140, 30, 360, 0]
        assert [row[1] for row in instance.timings] == [3, 2, 1, 3, 1]

    def test_build_stores_loading_and_haul_times(self, instance1):
        # Reading them later costs one dict lookup, not a computation.
        assert vars(instance1.depot)["loading_time"] == 5 * MIN
        assert [vars(site)["haul_time"] for site in instance1.sites] == [
            30 * MIN, 20 * MIN, 20 * MIN, 10 * MIN, 10 * MIN
        ]

    def test_specs_outside_an_instance_work_out_on_first_read(self):
        # 7.5 m3 at 90 m3/h is a 300 s loading; 5 km at 60 km/h a 300 s haul.
        spec, place = depot(truck_capacity=7.5, productivity=90), site()
        assert "loading_time" not in vars(spec) and "haul_time" not in vars(place)
        assert (spec.loading_time, place.haul_time) == (300, 300)
        assert (vars(spec)["loading_time"], vars(place)["haul_time"]) == (300, 300)

    def test_rebound_post_init_runs_on_every_build(self, monkeypatch, tmp_path):
        # A tracer may rebind the build hook; each way of building an
        # Instance must then pass through it.
        built = []
        original = Instance.__post_init__

        def traced(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Instance, "__post_init__", traced)
        loaded = rio.load_instance(rio.bundled_instance_path("example-1"))
        direct = Instance(loaded.depot, loaded.sites[::-1])
        replaced = replace(loaded, sites=loaded.sites[::-1])
        assert [id(i) for i in built] == [id(loaded), id(direct), id(replaced)]
        assert replaced.timings == direct.timings == loaded.timings[::-1]


class TestBuildErrorOrder:
    """An instance is refused at its first bad site in list order.  Within
    a site the haul time and trip count are read, then the pour window and
    then the 24 h bound on the trips so far are tested."""

    def test_24h_bound_before_a_later_inaccessible_site(self):
        with pytest.raises(
            ValidationError,
            match=r"^sites\[1\]\.demand: the trips up to this site need more than 24 h",
        ):
            make_instance([1440, 1441, 10], [10 * MIN] * 3, [5, 5, 100])

    def test_unreadable_demand_before_a_later_inaccessible_site(self):
        sites = (site(demand=math.inf), site(id=2, distance=100))
        with pytest.raises(ValidationError, match=r"^sites\[0\]: demand: not a number: inf$"):
            Instance(depot(), sites)

    def test_24h_bound_before_a_later_unreadable_demand(self):
        sites = (site(demand=14400), site(id=2, demand=math.inf))
        with pytest.raises(
            ValidationError,
            match=r"^sites\[0\]\.demand: the trips up to this site need more than 24 h",
        ):
            Instance(depot(), sites)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"distance": 1, "speed": 7}, r"sites\[1\]: haul time: .* whole number of seconds"),
            ({"speed": math.nan}, r"sites\[1\]: speed: not a number: nan"),
            ({"demand": math.inf}, r"sites\[1\]: demand: not a number: inf"),
            ({"distance": 100}, r"sites\[1\]: not accessible: "),
            ({"demand": 14400}, r"sites\[1\]\.demand: the trips up to this site"),
        ],
        ids=["haul", "speed", "demand", "window", "day"],
    )
    def test_each_refusal_names_its_site(self, bad, message):
        # A good first site, then one bad field in the second.
        with pytest.raises(ValidationError, match=f"^{message}"):
            Instance(depot(), (site(), site(id=2, **bad)))
