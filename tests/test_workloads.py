"""Unit tests for the traffic and wordcount workload generators."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import SentenceGenerator, TrafficModel, count_words, street_key


# ---------------------------------------------------------------- traffic

def test_traffic_model_emits_one_event_per_car():
    model = TrafficModel(num_cars=50, seed=1)
    events = list(model.events())
    assert len(events) == 50
    keys = {e.key for e in events}
    assert len(keys) == 50


def test_event_payload_size_matches_paper():
    model = TrafficModel(num_cars=5, payload_bytes=6000, seed=1)
    for event in model.events():
        assert event.size_bytes >= 6000


def test_cars_move_and_stay_in_city():
    model = TrafficModel(num_cars=30, seed=2)
    before = [(c.x, c.y) for c in model.cars]
    for _ in range(30):
        model.tick(1.0)
    after = [(c.x, c.y) for c in model.cars]
    assert before != after
    for car in model.cars:
        assert 0.0 <= car.x <= model.city_extent
        assert 0.0 <= car.y <= model.city_extent


def test_street_key_grid_mapping():
    assert street_key(0.0, 0.0, 250.0) == b"street:0:0"
    assert street_key(251.0, 499.0, 250.0) == b"street:1:1"


def test_hotspot_skew_concentrates_downtown():
    skewed = TrafficModel(num_cars=3000, hotspot_skew=3.0, seed=4)
    uniform = TrafficModel(num_cars=3000, hotspot_skew=0.0, seed=4)
    centre = skewed.city_extent / 2.0

    def mean_radius(model):
        return sum(
            ((c.x - centre) ** 2 + (c.y - centre) ** 2) ** 0.5 for c in model.cars
        ) / len(model.cars)

    assert mean_radius(skewed) < mean_radius(uniform)


def test_traffic_validation():
    with pytest.raises(ConfigurationError):
        TrafficModel(num_cars=0)
    with pytest.raises(ConfigurationError):
        TrafficModel(grid_size=0.0)


def test_traffic_deterministic_by_seed():
    a = TrafficModel(num_cars=10, seed=9)
    b = TrafficModel(num_cars=10, seed=9)
    assert [(c.x, c.y) for c in a.cars] == [(c.x, c.y) for c in b.cars]


# ---------------------------------------------------------------- wordcount

def test_sentences_have_requested_word_count():
    generator = SentenceGenerator(vocabulary_size=100, words_per_sentence=6, seed=1)
    sentence = generator.sentence()
    assert len(sentence.split()) == 6


def test_words_within_vocabulary():
    generator = SentenceGenerator(vocabulary_size=50, seed=2)
    for _ in range(500):
        word = generator.word()
        assert word.startswith("w")
        assert 0 <= int(word[1:]) < 50


def test_zipf_skew_concentrates_on_low_ranks():
    generator = SentenceGenerator(vocabulary_size=1000, zipf_s=1.2, seed=3)
    counts = {}
    for _ in range(5000):
        word = generator.word()
        counts[word] = counts.get(word, 0) + 1
    top = counts.get("w0000000", 0)
    assert top > 5000 / 1000 * 10  # far above uniform share


def test_count_words_reference():
    generator = SentenceGenerator(vocabulary_size=20, seed=4)
    records = list(generator.sentences(100))
    counts = count_words(records)
    assert sum(counts.values()) == 100 * generator.words_per_sentence


def test_wordcount_validation():
    with pytest.raises(ConfigurationError):
        SentenceGenerator(vocabulary_size=0)
    with pytest.raises(ConfigurationError):
        SentenceGenerator(words_per_sentence=0)
    with pytest.raises(ConfigurationError):
        SentenceGenerator(zipf_s=0.0)


def test_generator_deterministic_by_seed():
    a = SentenceGenerator(vocabulary_size=100, seed=7).sentence()
    b = SentenceGenerator(vocabulary_size=100, seed=7).sentence()
    assert a == b
