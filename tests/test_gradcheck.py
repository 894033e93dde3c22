import numpy as np
import pytest

from hatenet import cli, gradcheck, layers, model
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
        "gru", "lstm", "gru_lead", "lstm_lead", "cross_entropy", "weak_loss",
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

    @pytest.mark.parametrize("name", ["gru_lead", "lstm_lead"])
    def test_lead_checks_cover_conv_b_with_a_lead(self, name):
        report = gradcheck.check(name, trials=1)
        assert {"conv_b_t0_1", "conv_b_t0_4", "x_t0_1", "w_z_t0_1" if name == "gru_lead"
                else "w_i_t0_1"} <= set(report.per_tensor)
        assert report.passed, str(report)

    @pytest.mark.parametrize("name, variant", [
        ("topology_cnn_rnn_gru", model.CNN_RNN_FC), ("topology_cnn_fc", model.CNN_FC),
    ])
    def test_topology_lead_batch_has_a_common_lead(self, name, variant):
        config = gradcheck._tiny_config(variant)
        batch = gradcheck._lead_batch(np.random.default_rng(0), config)
        leads = model._padding_steps(config, model._conv_input(batch, config).ids)
        assert leads.tolist() == [2, 1, 1]
        assert "feature.conv_b_lead_batch" in gradcheck.check(name, trials=1).per_tensor

    def test_all_bias_pool_windows_are_no_kink(self):
        bias = np.array([0.5, -1.0])
        data = np.array([[0.5, 0.5, 0.9, 0.1], [-1.0, -1.0, -1.0, -1.0]])
        assert gradcheck._windows_well_separated(data, 2, 1e-3, bias)
        assert not gradcheck._windows_well_separated(data, 2, 1e-3)
        data[0, 1] = 0.5 + 1e-9  # a near tie that is not the bias alone
        assert not gradcheck._windows_well_separated(data, 2, 1e-3, bias)

    def test_report_string_mentions_status(self):
        report = gradcheck.check("fc_none", trials=1)
        assert "pass" in str(report)


class TestCompare:
    def test_tiny_component_of_a_correct_gradient_passes(self, capsys):
        # feature.u_r has a component of -5.677e-8 (central difference
        # -5.679e-8) where the tensor's largest is 9.1e-5: a denominator
        # floored at 1e-8 alone failed it at rel 3.3e-4
        args = ["gradcheck", "--layer", "topology_cnn_rnn_gru", "--seed", "18000",
                "--trials", "1"]
        assert cli.main(args) == 0, capsys.readouterr().out

    def test_a_backward_pass_off_by_a_thousandth_fails(self, monkeypatch):
        real = layers._gru_back

        def scaled(*args):
            da, d_start = real(*args)
            return da * 1.001, d_start

        monkeypatch.setattr(layers, "_gru_back", scaled)
        report = gradcheck.check("topology_cnn_rnn_gru", seed=18000, trials=1)
        assert not report.passed
        assert report.max_rel_error > 5e-4

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
