"""Seeded input generator for the benchmark.

`generate(seed, out_dir)` writes one raw dump per mine, the typed term db
and three evaluation sets. The same seed always writes the same bytes.

Every value that feeds a corpus-level distractor pool (news titles, step
headlines, relation objects, lexicon words, paper titles, related
questions) is built from a never-reused integer through a seeded bijection
onto word tuples (names and compound words also retry on a collision), so
the values are distinct by construction; `generate` still checks that
before it returns. Text is assembled from ordinary English words so that
the language gate judges it like real prose.

This module does not import the program: the generator must not depend on
the code it measures.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path


def _words(text: str) -> tuple[str, ...]:
    """Sorted distinct words: a repeated word would break phrase uniqueness."""
    return tuple(sorted(set(text.split())))


NOUNS = _words("""
account actor address advice age agency air airport animal answer apple area
army art article artist attack author autumn baby bag bank bar base basket
battle beach bed bell bird birth board boat body bone book border bottle box
boy brain branch bread bridge brother budget building bus business cabin cake
camera camp canal captain car card career carpet castle cat cell century chain
chair chapter chart cheese chef child church circle city class climate clock
cloud club coach coast coat coffee college colour column committee community
company concert corner cottage council country county course court cousin cow
crew crop crowd culture cup customer cycle dance daughter deal debate desert
design desk diet dinner doctor dog door dream dress drink drawer duty earth
economy editor effect egg election energy engine estate evening event exam
factory family farm farmer father feast fence festival field figure film
finger fire fish flag flight floor flower food forest form fortune fountain
friend fruit fuel game garden gate gift glass gold government grain grass
group guest glove habit hall harbour harvest hat health heart hill history
holiday home horse hospital hotel hour house hunter idea island island jacket
journey judge kettle key kitchen knife lake lamp land language lawyer leader
lesson letter library light lion list machine magazine manager map market
meadow meal meeting member memory metal method middle milk mill mind minute
mirror model moment money month moon morning mother motor mountain museum
music nation nature neighbour network news night north novel nurse ocean
office officer orange orchard owner page painter palace paper parent park
party passenger path pattern payment peace pencil people pepper period piano
picture pilot place planet plant plate player pocket poem poet police pond
port post potato power president price prince prison prize problem product
program project property queen question radio rain reader record region
report river road rock roof room rope rose route rule sailor salt sand school
science sea season seat secret sector senate service shadow ship shop shore
silver singer sister skill sky soldier song sound soup source south space
speaker spring square stable staff stage station statue step stone store
storm story stream street student studio subject summer sun supper surface
system table tale teacher team temple tennis theatre theory thunder ticket
tiger timber tool tower town trade train tree trip truck tunnel valley
village visitor voice wall war water wave weather week wheel window winter
wood worker world writer yard year youth
""")

ADJECTIVES = _words("""
able active ancient bright broad busy calm careful central cheap clean clear
clever close cold common cool curious dark deep direct distant dry early
eastern easy empty equal exact fair famous fast fine firm flat fresh friendly
full gentle giant global golden grand great green grey happy hard heavy high
hidden honest hot huge humble kind large late light little local lonely long
loud lovely low lucky main major minor modern narrow national native natural
near neat new noble northern old open ordinary pale plain pleasant polite
poor popular private proud public pure quick quiet rapid rare ready real
regular rich rough round royal rural sacred safe sharp short silent simple
slow small smooth soft solid southern special steady steep strange strict
strong sudden sunny sweet tall tender thick thin tiny tough true urban usual
vast warm weak western wet whole wide wild wise young
""")

VERBS_PAST = _words("""
accepted added admired allowed announced answered appeared arrived asked
avoided baked began borrowed brought built called carried caught changed
chose cleaned climbed closed collected covered crossed danced decided
delivered described designed discovered drew drove earned entered explained
faced filled finished followed formed gathered gave grew greeted handled heard
held helped joined kept knew learned left lifted lived looked loved made
managed marked measured met moved named noticed opened ordered organized
painted passed planned planted played prepared printed produced protected
raised reached read received recorded repaired reported rested returned
saved served shared showed signed sold sent started studied supported taught
tested told touched trained travelled turned used visited waited walked
wanted washed watched welcomed wished won worked wrote
""")

VERBS_BASE = _words("""
bake borrow build carry change choose clean climb collect cook cover cross
design draw drive earn explain fill fix follow gather grow greet handle help
join keep learn lift manage measure mend move open order organize paint plan
plant play prepare print protect raise reach record repair rest return save
sell send share start study support teach test train travel turn visit wash
watch welcome write
""")

ADVERBS = _words("""
quickly slowly carefully quietly happily early often rarely gently firmly
openly calmly simply widely deeply clearly warmly briefly safely proudly
""")

PREPOSITIONS = _words("across after along around at before behind beside by during for from in near over past through toward under with")

SYLLABLES = _words("""
bar bel bran cal cor dal den dor fal fen gar gol hal har kel kin lan lor mar
mel mor nor pel ran ril sal sen tal tor val ven wil wor bro cla dri fre gra
pre sta tre
""")
NAME_ENDINGS = _words("ton ford ley by wick field mont dale worth stead ham well ridge")

# Label spaces.
DM_SECTIONS = ("money", "news", "sport", "health", "sciencetech", "travel", "femail", "tvshowbiz")
WIKIHOW_TOPS = (
    "Finance and Business", "Health", "Computers and Electronics", "Family Life", "Youth",
    "Hobbies and Crafts", "Arts and Entertainment", "Relationships", "Food and Entertaining",
    "Pets and Animals", "Education and Communications", "Sports and Fitness", "Home and Garden",
    "Personal Care and Style", "Travel", "Holidays and Traditions", "Philosophy and Religion",
    "Work World", "Screenplays",
)
ARXIV_DOMAINS = (
    "Computer Science", "Electrical Engineering and Systems Science", "Quantitative Biology",
    "Statistics", "Economics", "Mathematics", "Physics", "Quantitative Finance",
)
PROPERTIES = (
    "place of birth", "located in", "member of", "capital of", "part of", "founded by",
    "named after", "owned by", "designed by", "followed by", "occupation", "genre",
    "country", "continent", "employer", "headquarters", "language used", "sister city",
)
BLOCKED_PROPERTIES = ("IMDb ID", "image", "official website", "population (estimate)")
ENTITY_TYPES = (
    "human", "river", "city", "village", "mountain", "lake", "company", "school", "museum",
    "castle", "bridge", "island", "film", "novel", "song", "band", "festival", "park",
)
PARTS_OF_SPEECH = ("noun", "verb", "adjective", "adverb")
QA_KINDS = ("control", "dream", "logiqa", "reclor", "race", "race_c", "triviaqa")
NLI_LABELS = ("entailment", "neutral", "contradiction")
TERM_TYPES = ("dataset", "metric", "task", "method", "other")
NER_TYPES = ("PER", "LOC", "ORG", "MISC")

# Documents per mine, terms in the db, records per evaluation set. Fixed for
# every seed, so a run's size never depends on its seed.
SIZES = {
    "rotten_tomatoes": 500,
    "daily_mail": 1500,
    "wikidata": 250,
    "wikihow": 300,
    "wikipedia": 120,
    "wordnet": 700,
    "qa_corpus": 350,
    "arxiv": 400,
    "paperswithcode": 120,
    "plain_text": 400,
    "pwc_entity_db": 1000,
}
EVAL_SIZES = {"clinc150": 80, "conll03": 80, "scitldr": 200}
INTENT_LABELS = 40

MINES = tuple(k for k in SIZES if k != "pwc_entity_db")


class Words:
    """Seeded English-looking text plus a supply of never-repeating phrases."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._space = (len(ADJECTIVES), len(NOUNS), len(NOUNS))
        size = self._space[0] * self._space[1] * self._space[2]
        self._size = size
        # affine bijection on [0, size): unique ids map to unique triples
        self._mult = rng.randrange(1, size)
        while math.gcd(self._mult, size) != 1:
            self._mult += 1
        self._offset = rng.randrange(size)
        self._next = 0
        self._names: set[str] = set()

    def unique(self) -> tuple[str, str, str]:
        if self._next >= self._size:
            raise RuntimeError("unique phrase space exhausted")
        k = (self._next * self._mult + self._offset) % self._size
        self._next += 1
        a, rest = divmod(k, self._space[1] * self._space[2])
        b, c = divmod(rest, self._space[2])
        return ADJECTIVES[a], NOUNS[b], NOUNS[c]

    def unique_phrase(self) -> str:
        a, b, c = self.unique()
        return f"{a} {b} {c}"

    def name(self) -> str:
        """A capitalized proper name, never repeated within one generator."""
        rng = self.rng
        while True:
            first = (rng.choice(SYLLABLES) + rng.choice(NAME_ENDINGS)).capitalize()
            _, _, c = self.unique()
            candidate = f"{first} {c.capitalize()}"
            if candidate not in self._names:
                self._names.add(candidate)
                return candidate

    def word(self) -> str:
        """A lower-case compound word, never repeated within one generator."""
        while True:
            _, b, c = self.unique()
            candidate = f"{b}{c}"
            if candidate not in self._names:
                self._names.add(candidate)
                return candidate

    def clause(self) -> str:
        rng = self.rng
        return (
            f"the {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} {rng.choice(VERBS_PAST)} "
            f"the {rng.choice(NOUNS)} {rng.choice(PREPOSITIONS)} the {rng.choice(ADJECTIVES)} "
            f"{rng.choice(NOUNS)}"
        )

    def sentence(self, min_words: int) -> str:
        parts = [self.clause()]
        while sum(len(p.split()) for p in parts) < min_words:
            joiner = self.rng.choice(("and", "while", "because", "after", "so"))
            parts.append(f"{joiner} {self.clause()}")
        return " ".join(parts)

    def text(self, min_words: int, *mentions: str) -> str:
        """A few sentences of at least `min_words` words, weaving in `mentions`."""
        rng = self.rng
        sentences = []
        count = 0
        pending = list(mentions)
        while count < min_words or pending:
            s = self.sentence(rng.randint(10, 18))
            if pending:
                # mid-sentence, so no punctuation sticks to the mention
                s = f"{s} {rng.choice(PREPOSITIONS)} {pending.pop(0)} and {self.clause()}"
            s = s[0].upper() + s[1:] + "."
            sentences.append(s)
            count += len(s.split())
        return " ".join(sentences)


class Distinct:
    """Records every value emitted into a pool-feeding field."""

    def __init__(self):
        self.pools: dict[str, list[str]] = {}

    def add(self, pool: str, value: str) -> str:
        self.pools.setdefault(pool, []).append(value)
        return value

    def check(self) -> dict[str, int]:
        out = {}
        for pool, values in sorted(self.pools.items()):
            folded = [v.lower() for v in values]
            if len(set(folded)) != len(folded):
                raise AssertionError(f"generated pool '{pool}' repeats a value")
            out[pool] = len(values)
        return out


def _rotten_tomatoes(i, w, rng, seen):
    return {
        "doc_id": f"rt{i:05d}",
        "review": f"{w.sentence(rng.randint(8, 20)).capitalize()} about the {w.unique_phrase()}.",
        "rating": round(rng.uniform(0.0, 5.0), 1),
    }


def _daily_mail(i, w, rng, seen):
    bullets = [
        f"{seen.add('dm_bullets', w.unique_phrase())} {w.sentence(rng.randint(7, 12))}"
        for _ in range(rng.choice((1, 2, 2)))
    ]
    return {
        "doc_id": f"dm{i:05d}",
        "url": f"https://news.example.co.uk/{rng.choice(DM_SECTIONS)}/article-{i}.html",
        "title": seen.add("daily_mail_titles", f"{w.unique_phrase()} {rng.choice(VERBS_PAST)} {rng.choice(ADVERBS)}"),
        "bullets": bullets,
        "body": w.text(rng.randint(40, 90)),
    }


def _wikidata(i, w, rng, seen):
    subject = w.name()
    props = [{"pid": "P31", "property": "instance of", "object": rng.choice(ENTITY_TYPES)}]
    objects = []
    for name in rng.sample(PROPERTIES, rng.randint(4, 6)):
        obj = seen.add("wikidata_objects", w.name())
        objects.append(obj)
        props.append({"pid": f"P{rng.randint(100, 9000)}", "property": name, "object": obj})
    if rng.random() < 0.5:
        props.append({"pid": "P18", "property": rng.choice(BLOCKED_PROPERTIES), "object": w.unique_phrase()})
    paragraphs = [w.text(rng.randint(15, 30), subject, obj) for obj in objects]
    paragraphs.append(w.text(rng.randint(15, 30), subject))
    rng.shuffle(paragraphs)
    return {"doc_id": f"wd{i:05d}", "label": subject, "properties": props, "paragraphs": paragraphs}


def _step(w, rng, seen):
    headline = f"{rng.choice(VERBS_BASE).capitalize()} the {w.unique_phrase()}"
    seen.add("wikihow_step_headlines", headline)
    return {"headline": headline, "description": f"{headline} {w.sentence(rng.randint(10, 20))}."}


def _wikihow(i, w, rng, seen):
    title = seen.add("wikihow_questions", f"How to {rng.choice(VERBS_BASE).capitalize()} a {w.unique_phrase().title()}")
    top = rng.choice(WIKIHOW_TOPS)
    return {
        "doc_id": f"wh{i:05d}",
        "title": title,
        "title_description": w.sentence(rng.randint(12, 24)),
        "steps": [_step(w, rng, seen) for _ in range(rng.randint(3, 5))],
        "related_questions": [
            seen.add("wikihow_questions", f"How to {rng.choice(VERBS_BASE).capitalize()} {w.unique_phrase().title()}")
            for _ in range(rng.randint(1, 3))
        ],
        "category_path": [f"{w.unique_phrase().title()}", f"{rng.choice(ADJECTIVES).title()} {top}", top],
    }


def _wikipedia(i, w, rng, seen):
    sections = [
        {"title": seen.add("wikipedia_section_titles", w.unique_phrase().title()), "text": w.text(rng.randint(15, 40))}
        for _ in range(rng.randint(3, 4))
    ]
    paragraphs = []
    for _ in range(rng.randint(2, 3)):
        links = [w.name() for _ in range(rng.randint(0, 3))]
        paragraphs.append({"text": w.text(rng.randint(15, 30), *links), "links": links + [f"[{rng.randint(1, 9)}]"]})
    return {"doc_id": f"wp{i:05d}", "title": w.name(), "sections": sections, "paragraphs": paragraphs}


def _wordnet(i, w, rng, seen):
    word = seen.add("wordnet_words", w.word())
    senses = []
    for pos in rng.sample(PARTS_OF_SPEECH, rng.randint(1, 2)):
        senses.append({
            "pos": pos,
            "meaning": f"a {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} {rng.choice(PREPOSITIONS)} the {w.unique_phrase()}",
            "examples": [f"The {word} {w.sentence(rng.randint(8, 14))}"],
            "synonyms": [seen.add("wordnet_words", w.word()) for _ in range(rng.randint(0, 2))],
            "antonyms": [seen.add("wordnet_words", w.word()) for _ in range(rng.randint(0, 1))],
        })
    return {"doc_id": word, "word": word, "senses": senses}


def _qa(i, w, rng, seen):
    kind = QA_KINDS[i % len(QA_KINDS)]
    doc = {"doc_id": f"qa{i:05d}", "kind": kind, "context": w.text(rng.randint(40, 90))}
    if kind == "control":
        doc["question"] = w.sentence(rng.randint(8, 12)).capitalize() + "."
        doc["answer"] = rng.choice(NLI_LABELS)
        return doc
    if kind == "triviaqa":
        doc["question"] = f"Which {rng.choice(NOUNS)} {rng.choice(VERBS_PAST)} the {w.unique_phrase()}?"
        doc["answer"] = w.name()
        doc["source"] = "web"
        return doc
    options = [w.unique_phrase().capitalize() for _ in range(4)]
    if rng.random() < 0.2:
        doc["question"] = f"The {rng.choice(NOUNS)} {rng.choice(VERBS_PAST)} the ___ {rng.choice(PREPOSITIONS)} the {rng.choice(NOUNS)}."
    else:
        doc["question"] = f"What {rng.choice(VERBS_PAST)} the {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}?"
    doc["options"] = options
    doc["answer"] = rng.choice(options)
    return doc


def _arxiv(i, w, rng, seen):
    n_cat = 1 if rng.random() < 0.85 else 2
    return {
        "doc_id": f"ax{i:05d}",
        "title": seen.add("arxiv_titles", f"{w.unique_phrase().capitalize()} for {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} models"),
        "abstract": w.text(rng.randint(40, 90)),
        "categories": rng.sample(ARXIV_DOMAINS, n_cat),
    }


def _term_db(w, rng, seen, n):
    terms = []
    for i in range(n):
        etype = TERM_TYPES[i % len(TERM_TYPES)]
        a, b, c = w.unique()
        surface = f"{b.capitalize()}{c.capitalize()}-{i % 97}" if etype != "other" else f"{a} {b} {c}"
        terms.append({"surface": seen.add("pwc_terms", surface), "type": etype})
    return terms


def _paperswithcode(i, w, rng, seen, terms):
    sentences = []
    for _ in range(rng.randint(2, 4)):
        picked = [t["surface"] for t in rng.sample(terms, rng.randint(0, 3))]
        sentences.append(w.text(rng.randint(10, 18), *picked))
    abstract = w.text(rng.randint(30, 60))
    return {
        "doc_id": f"pwc{i:05d}",
        "sentences": sentences,
        "abstract": abstract,
        "introduction": w.text(len(abstract.split()) + rng.randint(10, 60)),
    }


def _plain_text(i, w, rng, seen):
    return {"doc_id": f"pt{i:05d}", "text": w.text(rng.randint(20, 60))}


_MAKERS = {
    "rotten_tomatoes": _rotten_tomatoes,
    "daily_mail": _daily_mail,
    "wikidata": _wikidata,
    "wikihow": _wikihow,
    "wikipedia": _wikipedia,
    "wordnet": _wordnet,
    "qa_corpus": _qa,
    "arxiv": _arxiv,
    "plain_text": _plain_text,
}


def _write_jsonl(path: Path, records) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        n = 0
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            n += 1
    return n


def _intent_set(w, rng, n):
    labels = sorted({f"{v} {rng.choice(NOUNS)}" for v in rng.sample(VERBS_BASE, INTENT_LABELS)})
    return [
        {"doc_id": f"in{i:05d}", "text": f"please {w.sentence(rng.randint(6, 10))}", "label": rng.choice(labels)}
        for i in range(n)
    ]


def _ner_set(w, rng, n):
    records = []
    for i in range(n):
        entities = [(w.name(), rng.choice(NER_TYPES)) for _ in range(rng.randint(2, 4))]
        text = w.text(rng.randint(12, 24), *(e for e, _ in entities))
        records.append({"doc_id": f"ner{i:05d}", "text": text, "entities": [list(e) for e in entities]})
    return records


def _summary_set(w, rng, n):
    return [
        {"doc_id": f"sum{i:05d}", "text": w.text(rng.randint(40, 80)), "summary": w.sentence(rng.randint(8, 14))}
        for i in range(n)
    ]


def generate(seed: int, out_dir: str | Path) -> dict:
    """Write every input file under `out_dir`; return their paths and sizes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seen = Distinct()
    files: dict[str, str] = {}
    sizes: dict[str, int] = {}
    for mine in (*MINES, "pwc_entity_db"):
        if mine in ("paperswithcode", "pwc_entity_db"):
            continue
        rng = random.Random(f"{seed}:{mine}")
        w = Words(rng)
        path = out / f"{mine}.jsonl"
        sizes[mine] = _write_jsonl(path, (_MAKERS[mine](i, w, rng, seen) for i in range(SIZES[mine])))
        files[mine] = str(path)

    rng = random.Random(f"{seed}:paperswithcode")
    w = Words(rng)
    terms = _term_db(w, rng, seen, SIZES["pwc_entity_db"])
    files["pwc_entity_db"] = str(out / "pwc_entity_db.jsonl")
    sizes["pwc_entity_db"] = _write_jsonl(Path(files["pwc_entity_db"]), terms)
    files["paperswithcode"] = str(out / "paperswithcode.jsonl")
    sizes["paperswithcode"] = _write_jsonl(
        Path(files["paperswithcode"]),
        (_paperswithcode(i, w, rng, seen, terms) for i in range(SIZES["paperswithcode"])),
    )

    for name, maker in (("clinc150", _intent_set), ("conll03", _ner_set), ("scitldr", _summary_set)):
        rng = random.Random(f"{seed}:eval:{name}")
        path = out / f"eval_{name}.jsonl"
        sizes[f"eval_{name}"] = _write_jsonl(path, maker(Words(rng), rng, EVAL_SIZES[name]))
        files[f"eval_{name}"] = str(path)

    return {"files": files, "sizes": sizes, "distinct": seen.check()}
