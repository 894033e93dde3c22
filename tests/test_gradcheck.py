import numpy as np
import pytest

from hatenet import gradcheck
from hatenet.autograd import Tensor
from hatenet.errors import NonFiniteValue


class TestRegistry:
    def test_every_required_check_registered(self):
        for name in gradcheck.REQUIRED_CHECKS:
            assert name in gradcheck.REGISTRY

    def test_run_all_fails_when_check_missing(self, monkeypatch):
        broken = dict(gradcheck.REGISTRY)
        del broken["gru"]
        monkeypatch.setattr(gradcheck, "REGISTRY", broken)
        with pytest.raises(KeyError):
            gradcheck.run_all(trials=1)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            gradcheck.check("no_such_layer")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        # zero trials would run nothing and report every check as passed
        with pytest.raises(ValueError):
            gradcheck.check("fc_none", trials=trials)
        with pytest.raises(ValueError):
            gradcheck.run_all(trials=trials)


class TestLayerChecks:
    @pytest.mark.parametrize("name", ["fc_none", "fc_relu", "fc_softmax"])
    def test_fc_is_tight(self, name):
        report = gradcheck.check(name, trials=20)
        assert report.passed
        assert report.max_rel_error <= 1e-6

    @pytest.mark.parametrize("name", [
        "conv1d", "maxpool1d", "global_maxpool", "dropout",
        "gru", "lstm", "cross_entropy", "weak_loss",
    ])
    def test_layers_within_threshold(self, name):
        report = gradcheck.check(name, trials=20)
        assert report.passed, str(report)

    @pytest.mark.parametrize("name", [
        "topology_cnn_rnn_gru", "topology_cnn_rnn_lstm", "topology_cnn_fc",
    ])
    def test_topologies_within_threshold(self, name):
        report = gradcheck.check(name, trials=3)
        assert report.passed, str(report)
        assert report.per_tensor  # one entry per parameter tensor

    def test_conv1d_checks_constant_input_path(self):
        # the conv input is a constant, so only filters and bias are checked
        report = gradcheck.check("conv1d", trials=2)
        assert set(report.per_tensor) == {
            "filters", "bias", "filters_const_x", "bias_const_x",
            "filters_batch", "bias_batch", "filters_const_batch", "bias_const_batch",
            "filters_ids", "bias_ids",
        }
        assert report.passed, str(report)

    def test_report_string_mentions_status(self):
        report = gradcheck.check("fc_none", trials=1)
        assert "pass" in str(report)


class TestCompare:
    def test_detects_wrong_gradient(self):
        x = Tensor(np.array([1.0, 2.0]))

        def loss_fn():
            out = x * x
            wrong = Tensor(out.data.sum(), (x,))

            def bwd(g):
                x.grad += 3.0 * np.ones(2)  # deliberately not 2x

            wrong._backward = bwd
            return wrong

        errors = gradcheck.compare(loss_fn, {"x": x})
        assert errors["x"] > 1e-1

    def test_nonfinite_loss_raises(self):
        x = Tensor(np.array([0.0]))

        def loss_fn():
            return Tensor(np.array(np.inf), (x,))

        with pytest.raises(NonFiniteValue):
            gradcheck.compare(loss_fn, {"x": x})
