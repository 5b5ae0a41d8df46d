"""Adam, pseudo-targets, and the toy overfitting loop."""

import numpy as np
import pytest

from sga import training
from sga.autodiff import (
    Parameter, Tensor, backward, mul, recording, sub, sum_all, zero_gradients,
)
from sga.config import PipelineConfig
from sga.conllu import read_conllu
from sga.errors import NumericError, StateError
from sga.gradcheck import check_gradient
from sga.pipeline import Model
from sga.serialize import load_into, save_parameters
from sga.training import (
    Adam,
    RegressionHead,
    pseudo_targets,
    sentence_loss,
    toy_train,
    warmup_lr,
    write_loss_curve,
)

from composed_ops import composed_head_loss, recorded_ops


class ReferenceAdam:
    """Per-parameter Adam loop, the oracle of the fused whole-buffer step."""

    def __init__(self, params, lr=1e-2, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=None):
        rate = self.lr if lr is None else lr
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.step_count
        correct2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.assign(p.data - rate * update)


def _flat(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays])


def _copies(params):
    out = []
    for p in params:
        copy = Parameter(p.name, p.data)
        copy.grad[...] = p.grad
        out.append(copy)
    return out


def test_adam_minimizes_a_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    w = Parameter("w", np.zeros(3))
    optimizer = Adam([w], lr=0.1)
    for _ in range(300):
        optimizer.zero_grad()
        with recording():
            diff = sub(w, Tensor(target))
            backward(sum_all(mul(diff, diff)))
        optimizer.step()
    np.testing.assert_allclose(w.data, target, atol=1e-4)


class TestAdamStorage:
    def test_failed_step_changes_nothing(self):
        c = Parameter("c", np.zeros(2))
        d = Parameter("d", np.zeros(3))
        c.grad[...] = 1.0
        d.grad[1] = np.nan
        optimizer = Adam([c, d])
        with pytest.raises(NumericError, match="'d'"):
            optimizer.step()
        assert np.array_equal(c.data, np.zeros(2))
        assert np.array_equal(d.data, np.zeros(3))
        assert optimizer.step_count == 0
        assert not optimizer._m.any() and not optimizer._v.any()
        d.grad[...] = 0.0
        optimizer.step()
        np.testing.assert_allclose(c.data, -0.01, rtol=1e-8)
        assert optimizer.step_count == 1

    def test_overflowing_second_moment_changes_nothing(self):
        """g = 1e200 overflows (1 - beta2) g^2 to inf while the update
        m / inf stays finite; committing v = inf would freeze w for good."""
        w = Parameter("w", np.zeros(2))
        optimizer = Adam([w])
        w.grad[...] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'w'"):
            optimizer.step()
        assert np.array_equal(w.data, np.zeros(2))
        assert optimizer.step_count == 0
        assert not optimizer._m.any() and not optimizer._v.any()
        w.grad[...] = 1.0
        for _ in range(5):
            optimizer.step()
        np.testing.assert_allclose(w.data, -0.05, rtol=1e-8)

    def test_parameter_built_from_a_stepped_value_owns_its_storage(self):
        p = Parameter("p", np.zeros(2))
        optimizer = Adam([p])
        q = Parameter("q", p.data)
        assert not np.shares_memory(q.data, optimizer._values)
        q.assign(np.ones(2))
        assert np.array_equal(p.data, np.zeros(2))
        p.grad[...] = 1.0
        optimizer.step()
        assert np.array_equal(q.data, np.ones(2))

    @pytest.mark.parametrize("shapes", [((2,), (2,)), ((2,), (3,))])
    def test_same_name_parameters_keep_their_own_moments(self, shapes):
        a = Parameter("w", np.zeros(shapes[0]))
        b = Parameter("w", np.zeros(shapes[1]))
        optimizer = Adam([a, b])
        for _ in range(3):
            a.grad[...] = 1.0
            b.grad[...] = -1.0
            optimizer.step()
        # On a constant gradient every Adam step is the learning rate times
        # the gradient's sign, up to eps.
        np.testing.assert_allclose(a.data, -0.03, rtol=1e-8)
        np.testing.assert_allclose(b.data, 0.03, rtol=1e-8)

    def test_parameter_listed_twice_rejected(self):
        w = Parameter("w", np.zeros(2))
        with pytest.raises(ValueError):
            Adam([w, w])

    def test_detached_optimizer_refuses_to_step(self):
        a = Parameter("a", np.zeros(2))
        b = Parameter("b", np.zeros(2))
        old = Adam([a, b])
        new = Adam([b])
        b.grad[...] = 1.0
        with pytest.raises(StateError, match="'b'"):
            old.step()
        with pytest.raises(StateError):
            old.zero_grad()
        new.step()
        np.testing.assert_allclose(b.data, -0.01, rtol=1e-8)

    def test_empty_optimizer_steps(self):
        optimizer = Adam([])
        optimizer.zero_grad()
        optimizer.step()

    def test_gradient_held_at_construction_is_kept(self):
        w = Parameter("w", np.zeros(2))
        w.grad[...] = 1.0
        optimizer = Adam([w])
        assert np.array_equal(optimizer._grads, np.ones(2))
        optimizer.zero_grad()
        assert not w.grad.any()


def test_loss_tape_reads_weights_as_stored(fixtures_dir):
    """One toy loss on the flight fixture records 8 ops: the embedding
    gather, the position add, the relation stage, attention and tail in
    each of two blocks, and the head with its loss. None is a Parameter or
    only transposes its single parent, and backward runs each op's VJP
    once, so the walk visits no Parameter."""
    (tree,) = read_conllu((fixtures_dir / "flight.conllu").read_text())
    model = Model.create(PipelineConfig.toy(seed=0), [tree])
    head = RegressionHead.create(model.config.d_model, 4, np.random.default_rng(1))
    sentence = model.prepare(tree)
    loss = sentence_loss(model, head, sentence, pseudo_targets(sentence))
    ops = recorded_ops(loss)
    assert len(ops) == 8
    ran = []
    for op in ops:
        assert not isinstance(op, Parameter)
        if len(op._parents) == 1 and op.data.ndim == 2:
            assert not np.array_equal(op.data, op._parents[0].data.T)
        op._vjp = lambda g, op=op, vjp=op._vjp: ran.append(op) or vjp(g)
    backward(loss)
    assert sorted(map(id, ran)) == sorted(map(id, ops))


@pytest.mark.parametrize("seed", range(3))
def test_fused_head_loss_equals_composed_ops(seed):
    """The head and its squared error as one op give the composed ops'
    loss and gradients bit for bit, and gradcheck <= 1e-5 for x, w and b."""
    rng = np.random.default_rng(seed)
    head = RegressionHead.create(6, 3, rng)
    head.b.assign(rng.standard_normal(3))
    x = Parameter("x", rng.standard_normal((5, 6)))
    targets = rng.uniform(-1.0, 1.0, (5, 3))
    params = [x] + head.parameters()
    results = []
    for loss_of in (head.loss, lambda x, t: composed_head_loss(head, x, t)):
        zero_gradients(params)
        with recording():
            loss = loss_of(x, targets)
            backward(loss)
        results.append((loss.item(), [p.grad.copy() for p in params]))
    (fused, fused_grads), (composed, composed_grads) = results
    assert fused == composed
    for p, a, b in zip(params, fused_grads, composed_grads):
        assert np.array_equal(a, b), p.name
    assert check_gradient(lambda: head.loss(x, targets), params).max_rel_error <= 1e-5


def _trainable(fixtures_dir, seed=0):
    model, sentences = _toy_setup(fixtures_dir, seed=seed)
    head = RegressionHead.create(model.config.d_model, 4, np.random.default_rng(seed + 1))
    return model, head, sentences


def test_fused_step_matches_reference_loop_bit_for_bit(fixtures_dir):
    model, head, sentences = _trainable(fixtures_dir)
    targets = [pseudo_targets(s) for s in sentences]
    params = model.parameters() + head.parameters()
    twins = _copies(params)
    fused = Adam(params)
    reference = ReferenceAdam(twins)
    d_model = model.config.d_model
    for step in range(1, 25):
        k = step % len(sentences)
        fused.zero_grad()
        backward(sentence_loss(model, head, sentences[k], targets[k]))
        for p, twin in zip(params, twins):
            twin.grad[...] = p.grad
        rate = warmup_lr(step, d_model, 10)
        fused.step(lr=rate)
        reference.step(lr=rate)
        for p, twin in zip(params, twins):
            assert np.array_equal(p.data, twin.data), (step, p.name)
        assert np.array_equal(fused._m, _flat(reference.m)), step
        assert np.array_equal(fused._v, _flat(reference.v)), step


class TestInPlaceWritesReachTheBuffer:
    """Writes through the usual in-place routes land in the optimizer's
    storage, and its next step starts from them."""

    @staticmethod
    def _step_matches_reference(params, optimizer):
        assert all(np.shares_memory(p.data, optimizer._values) for p in params)
        assert np.array_equal(optimizer._values, _flat([p.data for p in params]))
        twins = _copies(params)
        for p in params:
            p.grad[...] = 0.5
        for twin in twins:
            twin.grad[...] = 0.5
        optimizer.step()
        ReferenceAdam(twins).step()
        for p, twin in zip(params, twins):
            assert np.array_equal(p.data, twin.data), p.name

    def test_load_into(self, fixtures_dir, tmp_path):
        saved, _ = _toy_setup(fixtures_dir, seed=3)
        path = tmp_path / "params.sga"
        save_parameters(path, saved.parameters())
        model, _ = _toy_setup(fixtures_dir)
        params = model.parameters()
        optimizer = Adam(params)
        load_into(params, path)
        for p, q in zip(params, saved.parameters()):
            assert np.array_equal(p.data, q.data)
        self._step_matches_reference(params, optimizer)

    def test_check_gradient(self, fixtures_dir):
        model, head, sentences = _trainable(fixtures_dir)
        targets = pseudo_targets(sentences[0])
        params = model.parameters() + head.parameters()
        optimizer = Adam(params)
        before = optimizer._values.copy()
        seen = []

        def loss():
            seen.append(np.count_nonzero(optimizer._values != before))
            return sentence_loss(model, head, sentences[0], targets)

        report = check_gradient(loss, [head.b, params[-3]])
        assert report.max_rel_error < 1e-5
        # One unperturbed evaluation, then one nudged coordinate per call.
        assert len(seen) == 1 + 2 * (head.b.data.size + params[-3].data.size)
        assert seen[0] == 0 and all(n == 1 for n in seen[1:])
        assert np.array_equal(optimizer._values, before)
        assert optimizer._grads.any()
        self._step_matches_reference(params, optimizer)

    def test_assign(self, fixtures_dir):
        model, _ = _toy_setup(fixtures_dir)
        params = model.parameters()
        optimizer = Adam(params)
        target = params[5]
        target.assign(np.full(target.shape, 0.25))
        assert np.array_equal(target.data, np.full(target.shape, 0.25))
        self._step_matches_reference(params, optimizer)


def test_warmup_schedule_shape():
    d_model = 16
    warmup = 50
    rates = [warmup_lr(step, d_model, warmup) for step in range(1, 200)]
    peak = int(np.argmax(rates)) + 1
    assert peak == warmup
    assert rates[0] < rates[warmup - 1]
    assert rates[-1] < rates[warmup - 1]


def _toy_setup(fixtures_dir, seed=0):
    trees = read_conllu((fixtures_dir / "toy_corpus.conllu").read_text())
    config = PipelineConfig.toy(seed=seed)
    model = Model.create(config, trees)
    sentences = [model.prepare(t) for t in trees]
    return model, sentences


class TestPseudoTargets:
    def test_deterministic_and_bounded(self, fixtures_dir):
        model, sentences = _toy_setup(fixtures_dir)
        first = pseudo_targets(sentences[0])
        second = pseudo_targets(sentences[0])
        assert np.array_equal(first, second)
        assert np.all(np.abs(first) <= 1.0)
        assert first.shape == (sentences[0].n_chars, 4)

    def test_same_word_same_targets_across_sentences(self, fixtures_dir):
        # "Dogs bark." and "Cats sleep." share the final period token.
        model, sentences = _toy_setup(fixtures_dir)
        dogs, cats = sentences[0], sentences[1]
        assert np.array_equal(pseudo_targets(dogs)[-1], pseudo_targets(cats)[-1])


class TestToyTrain:
    def test_zero_epochs_reports_initial_loss_only(self, fixtures_dir):
        model, sentences = _toy_setup(fixtures_dir)
        curve = toy_train(model, sentences[:3], epochs=0)
        assert len(curve) == 1
        assert curve[0] > 0

    def test_deterministic_under_seed(self, fixtures_dir):
        model_a, sentences_a = _toy_setup(fixtures_dir, seed=9)
        model_b, sentences_b = _toy_setup(fixtures_dir, seed=9)
        curve_a = toy_train(model_a, sentences_a[:4], epochs=3)
        curve_b = toy_train(model_b, sentences_b[:4], epochs=3)
        assert curve_a == curve_b

    def test_loss_drops(self, fixtures_dir):
        model, sentences = _toy_setup(fixtures_dir)
        curve = toy_train(model, sentences[:3], epochs=25)
        assert curve[-1] < 0.5 * curve[0]

    def test_initial_evaluation_records_nothing(self, fixtures_dir, monkeypatch):
        """The initial full-corpus loss runs outside recording(): only the
        training steps open a recording block, one per step."""
        model, sentences = _toy_setup(fixtures_dir)
        opened = []
        real = training.recording

        def counted():
            opened.append(1)
            return real()

        monkeypatch.setattr(training, "recording", counted)
        toy_train(model, sentences[:3], epochs=0)
        assert opened == []
        toy_train(model, sentences[:3], epochs=2)
        assert len(opened) == 2 * 3

    def test_empty_corpus_rejected(self, fixtures_dir):
        model, _ = _toy_setup(fixtures_dir)
        with pytest.raises(ValueError):
            toy_train(model, [], epochs=1)


def test_write_loss_curve(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_curve(path, [1.5, 0.75])
    assert path.read_text() == "epoch,loss\n0,1.5\n1,0.75\n"
