"""Seeded inputs of the served-QA benchmark.

Everything here is a pure function of the seed: the generated population
of the ``scale-link`` graph, the question streams of every workload and
the ingest batches of ``ingest-mixed``.  Same seed, same inputs.

The scale graph is the dbpedia-mini graph (ontology, classes and facts)
plus a generated population of people, cities, films and companies that
reuses the mini graph's classes and ``ont:`` predicates, so the curated
phrase set mined on it maps the question templates below to the right
predicates.  Names are built from shared token pools, so words such as
"City", common first names and surnames recur across many labels: this is
what makes keyword-to-element linking expensive at this size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FIRST = (
    "Anna Ben Clara David Emma Felix Grace Henry Iris Jack Karen Leo Maria "
    "Nina Oscar Paula Rosa Samuel Tara Vera Walter Zoe Adam Bella Carl Diana "
    "Eric Fiona George Hannah"
).split()
MIDDLE = (
    "Rose James Lee Marie John Ann Paul Jane Ray Lynn Mae Joseph Grant "
    "Louise Dean Claire Scott Faith Wade Hope"
).split()
SURNAMES = (
    "Miller Smith Jones Brown Taylor Wilson Davies Evans Johnson Roberts "
    "Walker Wright Robinson Thompson White Hughes Edwards Green Hall Wood "
    "Harris Jackson Clarke Turner Hill Cooper Morris Ward Moore King Watson "
    "Baker Morgan Young Allen Mitchell Fischer Weber Meyer Wagner"
).split()
CITY_ROOTS = (
    "Ash Oak Elm Pine Cedar Maple Birch Willow River Lake Stone Iron Silver "
    "Gold Green Red White Black Brook Fair Glen Haven Kings Queens North "
    "South East West Spring Summer Winter Wolf Bear Eagle Fox Deer Hawk Rose "
    "Lily Clover Mill Bridge Harbor Port Bay Cliff Hill Vale Marsh Moor "
    "Ridge Sand Salt Copper Amber Crystal Frost Storm Sun Moon Star Cloud "
    "Rain Thunder Wind"
).split()
CITY_SUFFIXES = (
    "ton field ville burg haven ford wood port mouth bury dale stead "
    "worth caster chester"
).split()
FILM_ADJECTIVES = (
    "Silent Hidden Broken Golden Frozen Burning Lost Last Dark Bright Wild "
    "Quiet Endless Secret Distant Crimson Electric Hollow Savage Gentle "
    "Fallen Rising Shattered Sacred Restless Velvet Iron Paper Glass Midnight "
    "Scarlet Lonely Bitter Sweet Eternal Fading Wicked Northern Southern "
    "Final Twisted Brave Silver Deadly Cold Hungry Sleeping Running Dancing "
    "Sinking"
).split()
FILM_NOUNS = (
    "River Heart Empire Shadow Garden Kingdom Storm Promise Horizon Mirror "
    "Journey Harvest Voyage Castle Dream Letter Winter Summer Island Road "
    "Machine Orchestra Station Lantern Ocean Forest Desert Tower Crown Bridge "
    "Signal Memory Frontier Harbor Canyon Circus Legacy Paradise Engine "
    "Echo Spiral Meadow Cathedral Compass Labyrinth Carnival Theory Verdict "
    "Sanctuary Pilgrim Requiem Anthem Prophecy Rebellion Reckoning Escape "
    "Departure Arrival Whisper Thunder Ember Glacier Tide Orbit Nomad"
).split()
INDUSTRIES = (
    "Motors Systems Foods Labs Energy Media Group Pharma Logistics Textiles "
    "Software Airlines Steel Chemicals Robotics Insurance Bank Brewery "
    "Studios Telecom"
).split()

# The question templates: the QALD forms the mini graph already answers
# ("Who was born in Vienna?", "Who is the mayor of Berlin?", ...).
TEMPLATES = {
    "born": "Who was born in {}?",
    "mayor": "Who is the mayor of {}?",
    "starred": "Who starred in {}?",
    "movies": "Give me all movies with {}.",
    "founded": "Who founded {}?",
    "companies": "Give me all companies in {}.",
}


@dataclass(slots=True)
class Population:
    """The generated part of the scale graph, with each question's gold."""

    triples: list[tuple[str, str, object]] = field(default_factory=list)
    #: (template key, entity label, frozenset of gold answer IRIs)
    questions: list[tuple[str, str, frozenset[str]]] = field(default_factory=list)


def _unique_names(rng: random.Random, count: int, make) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(names) < count:
        attempts += 1
        if attempts > count * 50:
            raise ValueError(f"name pool too small for {count} names")
        name = make(rng)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _iri(prefix: str, name: str) -> str:
    return f"res:{prefix}/{name.replace(' ', '_')}"


def generate_population(seed: int, people: int) -> Population:
    """People, cities, films and companies in fixed proportions.

    ``people`` sets the size; the graph holds about ``5.7 * people``
    triples (17 500 people make about 10^5 triples with the mini graph).
    Every generated entity gets ``rdf:type``, one ``rdfs:label`` and the
    facts the templates ask about; labels are unique among generated
    entities, so each question has one intended reading.
    """
    rng = random.Random(seed)
    cities_n = max(4, people // 10)
    films_n = max(4, people // 6)
    companies_n = max(4, people // 10)

    people_names = _unique_names(
        rng, people,
        lambda r: f"{r.choice(FIRST)} {r.choice(MIDDLE)} {r.choice(SURNAMES)}",
    )

    def city_name(r: random.Random) -> str:
        name = r.choice(CITY_ROOTS) + r.choice(CITY_SUFFIXES)
        if r.random() < 0.2:
            name = f"New {name}"
        return f"{name} City" if r.random() < 0.6 else name

    city_names = _unique_names(rng, cities_n, city_name)
    film_names = _unique_names(
        rng, films_n,
        lambda r: f"{r.choice(FILM_ADJECTIVES)} {r.choice(FILM_NOUNS)}",
    )
    company_names = _unique_names(
        rng, companies_n,
        lambda r: f"{r.choice(SURNAMES + CITY_ROOTS)} {r.choice(INDUSTRIES)}",
    )
    pop = Population()
    add = pop.triples.append

    def entity(prefix: str, name: str, cls: str) -> str:
        iri = _iri(prefix, name)
        add((iri, "rdf:type", f"res:{cls}"))
        add((iri, "rdfs:label", ("lit", name)))
        return iri

    person_iris = [entity("gp", n, "Person") for n in people_names]
    city_iris = [entity("gc", n, "City") for n in city_names]
    film_iris = [entity("gf", n, "Film") for n in film_names]
    company_iris = [entity("gco", n, "Company") for n in company_names]

    born: dict[int, set[str]] = {}
    for person in person_iris:
        city = rng.randrange(cities_n)
        add((person, "ont:birthPlace", city_iris[city]))
        add((person, "ont:birthDate", ("lit", f"19{rng.randrange(30, 99)}-0{rng.randrange(1, 9)}-1{rng.randrange(0, 9)}")))
        born.setdefault(city, set()).add(person)
    mayors = rng.sample(range(people), cities_n)
    for city, person in zip(range(cities_n), mayors):
        add((city_iris[city], "ont:mayor", person_iris[person]))
    # Actors are a fifth of the people; each film stars two or three.
    actors = rng.sample(range(people), max(2, people // 5))
    films_of: dict[int, set[str]] = {}
    stars_of: list[set[str]] = []
    for film in film_iris:
        cast = rng.sample(actors, rng.choice((2, 3)))
        stars_of.append({person_iris[a] for a in cast})
        for actor in cast:
            add((film, "ont:starring", person_iris[actor]))
            films_of.setdefault(actor, set()).add(film)
        add((film, "ont:director", person_iris[rng.randrange(people)]))
    companies_in: dict[int, set[str]] = {}
    founders: list[str] = []
    for company in company_iris:
        founder = person_iris[rng.randrange(people)]
        founders.append(founder)
        add((company, "ont:foundedBy", founder))
        city = rng.randrange(cities_n)
        add((company, "ont:locationCity", city_iris[city]))
        companies_in.setdefault(city, set()).add(company)

    q = pop.questions.append
    for index, name in enumerate(city_names):
        if index in born:
            q(("born", name, frozenset(born[index])))
        q(("mayor", name, frozenset({person_iris[mayors[index]]})))
        if index in companies_in:
            q(("companies", name, frozenset(companies_in[index])))
    for index, name in enumerate(film_names):
        q(("starred", name, frozenset(stars_of[index])))
    for actor, films in sorted(films_of.items()):
        q(("movies", people_names[actor], frozenset(films)))
    for index, name in enumerate(company_names):
        q(("founded", name, frozenset({founders[index]})))
    return pop


def question_text(template: str, label: str) -> str:
    return TEMPLATES[template].format(label)


def ingest_batch(seed: int, number: int, size: int = 10) -> list[list]:
    """Wire triples of write batch ``number`` in the benchmark's own
    namespace (never touches an entity a read question asks about)."""
    return [
        [f"bench:ingest/s{seed}/b{number}/e{i}", "bench:ingest/p",
         {"literal": f"value {number}.{i}"}]
        for i in range(size)
    ]
